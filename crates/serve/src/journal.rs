//! Write-ahead journal for long-running flow jobs.
//!
//! # Format (version 1)
//!
//! A journal is a plain-text, append-only file of JSON lines:
//!
//! ```text
//! {"version":1,"design":"...","design_checksum":"<16 hex>","flow_checksum":"<16 hex>"}
//! {"seq":0,"checksum":"<16 hex>","payload":{<BatchRecord>}}
//! {"seq":1,"checksum":"<16 hex>","payload":{<BatchRecord>}}
//! ...
//! ```
//!
//! The first line is the header: the format version plus fingerprints of
//! the *original* design and the flow configuration, so a journal can
//! never be replayed against the wrong job. Every further line is one
//! committed [`BatchRecord`] with its sequence number and an FNV-1a
//! checksum of the payload JSON. Records are appended with `fsync` per
//! record — a record on disk is a promise that the batch it describes is
//! committed and consistent.
//!
//! # Recovery
//!
//! [`FlowJournal::open`] recovers a journal left behind by a killed
//! process. The reader is *torn-tail tolerant*: a final line that does not
//! parse — or parses but fails its checksum — is the half-written record
//! of the fatal moment, and is discarded (the file is atomically rewritten
//! without it, via the same temp + fsync + rename discipline as
//! `runtime::checkpoint`). Any damage *before* the tail is real corruption
//! and refuses recovery with [`ServeError::Journal`]: before a single
//! batch is replayed, every recovered record must hash to its stored
//! checksum and the records must be numbered `0, 1, 2, ...` with no gap.
//!
//! # Compaction (opt-in, store-backed)
//!
//! A journal opened with [`FlowJournal::open_with_store`] may be
//! *compacted*: its committed record prefix moves into a checksummed
//! [`gcnt_store::PageStore`] segment, and the file shrinks to the header
//! plus one marker line:
//!
//! ```text
//! {"version":1,"design":...}                                  <- header
//! {"compacted_through":N,"segment_checksum":"<16 hex>"}       <- marker
//! {"seq":N,"checksum":...}                                    <- live tail
//! ```
//!
//! This bounds journal growth: the tail is folded into pages every
//! [`crate::StorePolicy::compact_after_records`] records. The commit
//! order is store-segment first, file-rewrite second, so a kill between
//! the two leaves a *superset* segment plus the still-complete tail —
//! recovery takes the marker's prefix from the segment and the rest from
//! the file, and the next compaction overwrites the stale extra. A
//! compacted journal opened **without** its store refuses loudly (the
//! prefix is unreachable, and guessing would silently lose records).
//!
//! # Versioning
//!
//! [`JOURNAL_VERSION`] is bumped on any breaking change to the line
//! format; a reader refuses versions it does not know rather than guess.
//! Version 1 is the initial format described above.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use gcnt_dft::flow::{BatchRecord, FlowConfig};
use gcnt_netlist::{format, Netlist};
use gcnt_runtime::FaultPlan;
use gcnt_store::{atomic_write, checksum_hex, PageStore, SegmentKey};

use crate::error::ServeError;

/// Version of the journal line format this build reads and writes.
pub const JOURNAL_VERSION: u32 = 1;

/// The journal's first line: format version plus job identity.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Format version; see [`JOURNAL_VERSION`].
    pub version: u32,
    /// Name of the design the job runs on.
    pub design: String,
    /// FNV-1a checksum (hex) of the original design's text form.
    pub design_checksum: String,
    /// FNV-1a checksum (hex) of the flow configuration JSON.
    pub flow_checksum: String,
}

impl JournalHeader {
    /// Fingerprints a job: the *original* (pre-flow) design plus its flow
    /// configuration.
    ///
    /// # Errors
    ///
    /// [`ServeError::Journal`] if the flow configuration cannot be
    /// serialized for fingerprinting.
    pub fn describe(net: &Netlist, cfg: &FlowConfig) -> Result<Self, ServeError> {
        let cfg_json = serde_json::to_string(cfg)
            .map_err(|e| ServeError::Journal(format!("flow config serialization: {e}")))?;
        Ok(JournalHeader {
            version: JOURNAL_VERSION,
            design: net.name().to_string(),
            design_checksum: checksum_hex(format::write(net).as_bytes()),
            flow_checksum: checksum_hex(cfg_json.as_bytes()),
        })
    }
}

/// One journal line after the header.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct RecordLine {
    seq: u64,
    checksum: String,
    payload: BatchRecord,
}

/// The marker line a compaction leaves behind: records `0..compacted_through`
/// live in the store segment whose first `compacted_through` lines hash to
/// `segment_checksum`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct CompactionMarker {
    compacted_through: u64,
    segment_checksum: String,
}

/// Segment kind under which a journal's compacted prefix is stored.
pub const JOURNAL_SEGMENT_KIND: &str = "journal";

/// The store key of a journal's compacted prefix. `start`/`end` are fixed
/// at zero: the authoritative record count is the marker's
/// `compacted_through`, which lets an interrupted compaction leave a
/// superset segment behind without changing the key.
fn journal_segment_key(header: &JournalHeader) -> SegmentKey {
    SegmentKey {
        design: format!("{}-{}", header.design_checksum, header.flow_checksum),
        kind: JOURNAL_SEGMENT_KIND.to_string(),
        generation: 0,
        start: 0,
        end: 0,
    }
}

fn payload_checksum(rec: &BatchRecord) -> Result<String, ServeError> {
    let json = serde_json::to_string(rec)
        .map_err(|e| ServeError::Journal(format!("record serialization: {e}")))?;
    Ok(checksum_hex(json.as_bytes()))
}

/// An open, append-ready write-ahead journal.
#[derive(Debug)]
pub struct FlowJournal {
    file: fs::File,
    path: PathBuf,
    next_seq: u64,
    /// On-disk size of the journal file, kept current across appends and
    /// compactions (feeds the `gcnt_serve_journal_bytes` gauge).
    bytes: u64,
    /// Present iff the journal was opened with a store; plain journals
    /// never compact and never buffer tail lines.
    compaction: Option<CompactionState>,
}

/// Compaction bookkeeping for a store-backed journal.
#[derive(Debug)]
struct CompactionState {
    header: JournalHeader,
    /// Records already folded into the store segment.
    compacted_through: u64,
    /// Serialized record lines appended (or recovered) since the last
    /// compaction — exactly what the next compaction folds.
    tail_lines: Vec<String>,
}

/// The result of opening a journal: the append handle plus whatever a
/// previous (possibly killed) run left in it.
#[derive(Debug)]
pub struct Recovered {
    /// The journal, positioned to append the next record.
    pub journal: FlowJournal,
    /// Verified records of the previous run, in sequence order; empty for
    /// a fresh journal.
    pub records: Vec<BatchRecord>,
    /// Whether a torn (half-written) final line was discarded.
    pub dropped_torn_tail: bool,
}

impl FlowJournal {
    /// Opens (or creates) the journal at `path` for the job described by
    /// `header`, recovering and verifying any records a previous run
    /// journaled.
    ///
    /// # Errors
    ///
    /// [`ServeError::Journal`] if the file cannot be read or written, the
    /// header names a different job or an unsupported version, a record
    /// before the tail fails its checksum or breaks the sequence, or the
    /// journal was compacted into a store (open it with
    /// [`FlowJournal::open_with_store`]).
    pub fn open(path: &Path, header: &JournalHeader) -> Result<Recovered, ServeError> {
        Self::recover(path, header, None)
    }

    /// Opens (or creates) the journal with a backing page store, enabling
    /// compaction: on a compacted journal, the marker's record prefix is
    /// loaded back out of the store's checksummed segment and verified
    /// together with the file's live tail.
    ///
    /// # Errors
    ///
    /// Everything [`FlowJournal::open`] raises, plus
    /// [`ServeError::Store`] if the compacted prefix is missing from the
    /// store, fails its checksums, or disagrees with the marker.
    pub fn open_with_store(
        path: &Path,
        header: &JournalHeader,
        store: &mut PageStore,
    ) -> Result<Recovered, ServeError> {
        Self::recover(path, header, Some(store))
    }

    /// The one recovery path: parses and verifies a journal (and, given
    /// its store, the compacted prefix), tolerating a torn tail, which is
    /// healed on disk before anything is appended after it.
    fn recover(
        path: &Path,
        header: &JournalHeader,
        store: Option<&mut PageStore>,
    ) -> Result<Recovered, ServeError> {
        let io = |e: std::io::Error| ServeError::Journal(format!("{}: {e}", path.display()));
        let bad = |what: String| ServeError::Journal(format!("{}: {what}", path.display()));
        let with_store = store.is_some();
        let fresh = !path.exists();
        let mut marker = None;
        let mut parsed: Vec<RecordLine> = Vec::new();
        let mut torn = false;
        if !fresh {
            let text = fs::read_to_string(path).map_err(io)?;
            let mut lines = text.lines().filter(|l| !l.trim().is_empty());
            let first = lines
                .next()
                .ok_or_else(|| bad("empty journal file (missing header)".to_string()))?;
            verify_header(path, header, first)?;
            let mut tail: Vec<&str> = lines.collect();
            if let Some(m) = tail
                .first()
                .and_then(|line| serde_json::from_str::<CompactionMarker>(line).ok())
            {
                // The record prefix lives in a page store; without it,
                // refuse rather than silently drop committed records.
                let store = store.ok_or_else(|| {
                    bad("journal was compacted into a page store; open it with its store".into())
                })?;
                // The segment may hold *more* than the marker's prefix (a
                // compaction killed between its store commit and the file
                // rewrite); those extra lines are the same records the
                // tail still carries and are ignored.
                let prefix = compacted_prefix(store, header, m.compacted_through)?;
                let seg = |what: String| {
                    ServeError::Store(format!(
                        "journal segment {}: {what}",
                        journal_segment_key(header).display()
                    ))
                };
                if checksum_hex(prefix.as_bytes()) != m.segment_checksum {
                    return Err(seg(
                        "compacted prefix does not match the marker checksum".into()
                    ));
                }
                for (i, line) in prefix.lines().enumerate() {
                    let rec: RecordLine = serde_json::from_str(line)
                        .map_err(|e| seg(format!("unreadable compacted record {i}: {e}")))?;
                    parsed.push(rec);
                }
                tail.remove(0);
                marker = Some(m);
            }
            for (i, line) in tail.iter().enumerate() {
                match serde_json::from_str::<RecordLine>(line) {
                    Ok(rec) => parsed.push(rec),
                    Err(_) if serde_json::from_str::<CompactionMarker>(line).is_ok() => {
                        return Err(bad(
                            "compaction marker after record lines (corrupted journal)".into(),
                        ));
                    }
                    // Only the final line may be torn; earlier damage is
                    // real.
                    Err(_) if i + 1 == tail.len() => torn = true,
                    Err(e) => return Err(bad(format!("unreadable record at line {}: {e}", i + 2))),
                }
            }
        }
        let compacted_through = marker.as_ref().map_or(0, |m| m.compacted_through);
        // A complete-looking final line whose checksum fails is the same
        // fatal moment: the write was cut inside the payload.
        if !torn && parsed.len() as u64 > compacted_through {
            if let Some(last) = parsed.last() {
                if payload_checksum(&last.payload)? != last.checksum {
                    parsed.pop();
                    torn = true;
                }
            }
        }
        validate_records(path, &parsed)?;

        let mut tail_lines = Vec::new();
        if torn || with_store {
            for r in parsed.iter().skip(compacted_through as usize) {
                tail_lines.push(record_line(r.seq, &r.payload)?);
            }
        }
        if torn || fresh {
            let mut clean = header_line(header)?;
            if let Some(m) = &marker {
                clean.push_str(&marker_line(m)?);
            }
            for line in &tail_lines {
                clean.push_str(line);
            }
            atomic_write(path, clean.as_bytes()).map_err(|e| ServeError::Journal(e.to_string()))?;
        }
        let file = fs::OpenOptions::new().append(true).open(path).map_err(io)?;
        let bytes = fs::metadata(path).map_err(io)?.len();
        let journal = FlowJournal {
            file,
            path: path.to_path_buf(),
            next_seq: parsed.len() as u64,
            bytes,
            compaction: with_store.then(|| CompactionState {
                header: header.clone(),
                compacted_through,
                tail_lines,
            }),
        };
        journal.publish_gauges();
        Ok(Recovered {
            journal,
            records: parsed.into_iter().map(|r| r.payload).collect(),
            dropped_torn_tail: torn,
        })
    }

    /// Appends one committed batch and fsyncs it to disk; returns the
    /// record's sequence number.
    ///
    /// # Errors
    ///
    /// [`ServeError::Journal`] if the write or sync fails; the flow must
    /// then stop, because further batches would outrun the journal.
    pub fn append(&mut self, rec: &BatchRecord) -> Result<u64, ServeError> {
        let io = |e: std::io::Error| ServeError::Journal(format!("{}: {e}", self.path.display()));
        let seq = self.next_seq;
        let line = record_line(seq, rec)?;
        let fsync_span = gcnt_obs::span(gcnt_obs::histograms::SERVE_JOURNAL_FSYNC_NS);
        let write = self
            .file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.sync_all());
        if let Err(e) = write {
            fsync_span.cancel();
            return Err(io(e));
        }
        fsync_span.finish();
        gcnt_obs::global().incr(gcnt_obs::counters::SERVE_JOURNAL_APPENDS);
        self.next_seq += 1;
        self.bytes += line.len() as u64;
        if let Some(state) = &mut self.compaction {
            state.tail_lines.push(line);
        }
        self.publish_gauges();
        Ok(seq)
    }

    /// Folds every live tail record into the backing store's journal
    /// segment and shrinks the file to header + marker; returns how many
    /// records were folded (0 if the tail was already empty).
    ///
    /// Commit order is segment-then-file: the store's segment (its own
    /// fsync + metadata commit) lands before the file rewrite, and `plan`
    /// may inject a deterministic `kill -9` *between* the two — the
    /// crash-window [`FlowJournal::open_with_store`] recovers from.
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] if the journal was opened without a store or
    /// the segment cannot be read/written (including injected disk-full);
    /// [`ServeError::Journal`] if the file rewrite fails. On error the
    /// journal file is untouched and still replayable.
    pub fn compact_into(
        &mut self,
        store: &mut PageStore,
        plan: &FaultPlan,
    ) -> Result<u64, ServeError> {
        let state = self.compaction.as_mut().ok_or_else(|| {
            ServeError::Store("journal was opened without a store; cannot compact".to_string())
        })?;
        if state.tail_lines.is_empty() {
            return Ok(0);
        }
        let key = journal_segment_key(&state.header);
        let seg =
            |what: String| ServeError::Store(format!("journal segment {}: {what}", key.display()));
        // Prefix already in the store (first `compacted_through` lines;
        // anything past that is leftovers of an interrupted compaction).
        let mut segment = if state.compacted_through > 0 {
            compacted_prefix(store, &state.header, state.compacted_through)?
        } else {
            String::new()
        };
        for line in &state.tail_lines {
            segment.push_str(line);
        }
        let folded = state.tail_lines.len() as u64;
        let new_through = self.next_seq;

        // 1. Commit the grown segment (fsynced pages + metadata rename).
        store
            .put_segment(&key, segment.as_bytes())
            .map_err(|e| seg(e.to_string()))?;
        // 2. The injected crash window: segment committed, file not yet
        //    rewritten. A real kill here leaves the full tail in the file
        //    and a superset segment in the store — both recoverable.
        if plan.should_kill_mid_compaction() {
            std::process::abort();
        }
        // 3. Shrink the file to header + marker, atomically.
        let marker = CompactionMarker {
            compacted_through: new_through,
            segment_checksum: checksum_hex(segment.as_bytes()),
        };
        let mut clean = header_line(&state.header)?;
        clean.push_str(&marker_line(&marker)?);
        atomic_write(&self.path, clean.as_bytes())
            .map_err(|e| ServeError::Journal(e.to_string()))?;
        // 4. The rename replaced the inode under our append handle —
        //    reopen so future appends land in the live file.
        self.file = fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| ServeError::Journal(format!("{}: {e}", self.path.display())))?;
        state.compacted_through = new_through;
        state.tail_lines.clear();
        self.bytes = clean.len() as u64;
        gcnt_obs::global().observe(gcnt_obs::histograms::STORE_COMPACTION_RECORDS, folded);
        self.publish_gauges();
        Ok(folded)
    }

    /// Sequence number the next appended record will get (= committed
    /// records, on disk and in the store combined).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Records currently living in the journal *file* (the compaction
    /// trigger); equals [`FlowJournal::next_seq`] for plain journals.
    pub fn live_records(&self) -> u64 {
        self.next_seq - self.compacted_through()
    }

    /// Records already folded into the backing store (0 for plain
    /// journals).
    pub fn compacted_through(&self) -> u64 {
        self.compaction.as_ref().map_or(0, |s| s.compacted_through)
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn publish_gauges(&self) {
        let obs = gcnt_obs::global();
        obs.gauge_set(
            gcnt_obs::gauges::SERVE_JOURNAL_RECORDS,
            self.live_records() as f64,
        );
        obs.gauge_set(gcnt_obs::gauges::SERVE_JOURNAL_BYTES, self.bytes as f64);
    }
}

/// The first `through` record lines of a journal's compacted store
/// segment, each newline-terminated.
fn compacted_prefix(
    store: &mut PageStore,
    header: &JournalHeader,
    through: u64,
) -> Result<String, ServeError> {
    let key = journal_segment_key(header);
    let seg =
        |what: String| ServeError::Store(format!("journal segment {}: {what}", key.display()));
    let bytes = store
        .get_segment(&key)
        .map_err(|e| seg(e.to_string()))?
        .ok_or_else(|| seg("compacted record prefix is missing from the store".into()))?;
    let text = String::from_utf8(bytes).map_err(|e| seg(format!("segment is not UTF-8: {e}")))?;
    let mut prefix = String::new();
    let mut taken = 0u64;
    for line in text.lines().take(through as usize) {
        prefix.push_str(line);
        prefix.push('\n');
        taken += 1;
    }
    if taken < through {
        return Err(seg(format!(
            "segment holds {taken} record(s), the journal expects {through}"
        )));
    }
    Ok(prefix)
}

/// Checks a journal's first line against the expected job identity.
fn verify_header(path: &Path, header: &JournalHeader, first: &str) -> Result<(), ServeError> {
    let bad = |what: String| ServeError::Journal(format!("{}: {what}", path.display()));
    let stored: JournalHeader =
        serde_json::from_str(first).map_err(|e| bad(format!("unreadable journal header: {e}")))?;
    if stored.version != JOURNAL_VERSION {
        return Err(bad(format!(
            "journal format version {} is not supported (this build reads version {JOURNAL_VERSION})",
            stored.version
        )));
    }
    if stored != *header {
        return Err(bad(format!(
            "journal belongs to a different job (design `{}`, checksums {}/{})",
            stored.design, stored.design_checksum, stored.flow_checksum
        )));
    }
    Ok(())
}

/// Validates a recovered record stream before a single batch is
/// replayed: every payload hashes to its stored checksum, and the records
/// are numbered `0, 1, 2, ...` with no gap or reordering.
fn validate_records(path: &Path, parsed: &[RecordLine]) -> Result<(), ServeError> {
    let bad = |what: String| ServeError::Journal(format!("{}: {what}", path.display()));
    for (expected, r) in (0u64..).zip(parsed) {
        let computed = payload_checksum(&r.payload)?;
        if computed != r.checksum {
            return Err(bad(format!(
                "checksum mismatch: record {} stores {} but its payload hashes to {computed}",
                r.seq, r.checksum
            )));
        }
        if r.seq != expected {
            return Err(bad(format!(
                "sequence gap: record at position {expected} declares sequence {}",
                r.seq
            )));
        }
    }
    Ok(())
}

fn header_line(header: &JournalHeader) -> Result<String, ServeError> {
    let mut line = serde_json::to_string(header)
        .map_err(|e| ServeError::Journal(format!("header serialization: {e}")))?;
    line.push('\n');
    Ok(line)
}

fn marker_line(marker: &CompactionMarker) -> Result<String, ServeError> {
    let mut line = serde_json::to_string(marker)
        .map_err(|e| ServeError::Journal(format!("marker serialization: {e}")))?;
    line.push('\n');
    Ok(line)
}

fn record_line(seq: u64, rec: &BatchRecord) -> Result<String, ServeError> {
    let mut line = serde_json::to_string(&RecordLine {
        seq,
        checksum: payload_checksum(rec)?,
        payload: rec.clone(),
    })
    .map_err(|e| ServeError::Journal(format!("record serialization: {e}")))?;
    line.push('\n');
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnt_dft::flow::InferenceStats;
    use gcnt_netlist::{generate, GeneratorConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_journal(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gcnt-serve-journal-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir.join("job.wal")
    }

    fn fixture() -> (Netlist, FlowConfig, JournalHeader) {
        let net = generate(&GeneratorConfig::sized("journal", 3, 120));
        let cfg = FlowConfig::default();
        let header = JournalHeader::describe(&net, &cfg).unwrap();
        (net, cfg, header)
    }

    fn record(iteration: usize) -> BatchRecord {
        BatchRecord {
            iteration,
            positives: 5 - iteration,
            inserted: vec![],
            skipped: vec![],
            converged: false,
            stats_after: InferenceStats {
                rows_computed: 10 * iteration as u64,
                rows_full: 20 * iteration as u64,
                inferences: iteration as u64,
            },
        }
    }

    #[test]
    fn journal_round_trips_across_reopen() {
        let path = temp_journal("roundtrip");
        let (_, _, header) = fixture();
        let mut rec = FlowJournal::open(&path, &header).unwrap();
        assert!(rec.records.is_empty());
        for i in 0..3 {
            assert_eq!(rec.journal.append(&record(i)).unwrap(), i as u64);
        }
        drop(rec);

        let again = FlowJournal::open(&path, &header).unwrap();
        assert_eq!(again.records.len(), 3);
        assert_eq!(again.records[2], record(2));
        assert!(!again.dropped_torn_tail);
        assert_eq!(again.journal.next_seq(), 3);
    }

    #[test]
    fn torn_tail_is_discarded_and_the_file_healed() {
        let path = temp_journal("torn");
        let (_, _, header) = fixture();
        let mut rec = FlowJournal::open(&path, &header).unwrap();
        rec.journal.append(&record(0)).unwrap();
        rec.journal.append(&record(1)).unwrap();
        drop(rec);
        // Simulate a kill mid-write: a half-finished final line.
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"seq\":2,\"checksum\":\"dead");
        fs::write(&path, &text).unwrap();

        let healed = FlowJournal::open(&path, &header).unwrap();
        assert!(healed.dropped_torn_tail);
        assert_eq!(healed.records.len(), 2);
        // The torn line is gone from disk; appending continues at seq 2.
        assert_eq!(healed.journal.next_seq(), 2);
        drop(healed);
        let clean = FlowJournal::open(&path, &header).unwrap();
        assert!(!clean.dropped_torn_tail);
        assert_eq!(clean.records.len(), 2);
    }

    #[test]
    fn mid_stream_corruption_refuses_recovery() {
        let path = temp_journal("corrupt");
        let (_, _, header) = fixture();
        let mut rec = FlowJournal::open(&path, &header).unwrap();
        for i in 0..3 {
            rec.journal.append(&record(i)).unwrap();
        }
        drop(rec);
        // Flip the middle record's payload: its checksum no longer holds.
        let text = fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("\"positives\":4", "\"positives\":9", 1);
        assert_ne!(text, tampered, "test must actually tamper");
        fs::write(&path, tampered).unwrap();

        let err = FlowJournal::open(&path, &header).unwrap_err();
        assert!(matches!(err, ServeError::Journal(_)), "{err}");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn sequence_gap_refuses_recovery() {
        let path = temp_journal("gap");
        let (_, _, header) = fixture();
        let mut rec = FlowJournal::open(&path, &header).unwrap();
        for i in 0..3 {
            rec.journal.append(&record(i)).unwrap();
        }
        drop(rec);
        // Drop the middle line: seqs 0, 2 — a lost record.
        let text = fs::read_to_string(&path).unwrap();
        let kept: Vec<&str> = text
            .lines()
            .enumerate()
            .filter(|&(i, _)| i != 2)
            .map(|(_, l)| l)
            .collect();
        fs::write(&path, kept.join("\n") + "\n").unwrap();

        let err = FlowJournal::open(&path, &header).unwrap_err();
        assert!(matches!(err, ServeError::Journal(_)), "{err}");
        assert!(err.to_string().contains("sequence gap"), "{err}");
    }

    fn store_for(path: &Path) -> PageStore {
        let dir = path.parent().expect("journal lives in a directory");
        PageStore::open(dir.join("store")).unwrap()
    }

    #[test]
    fn compaction_bounds_the_file_and_replay_is_complete() {
        let path = temp_journal("compact");
        let (_, _, header) = fixture();
        let mut store = store_for(&path);
        let mut rec = FlowJournal::open_with_store(&path, &header, &mut store).unwrap();
        let mut max_bytes = 0u64;
        for i in 0..120 {
            rec.journal.append(&record(i % 5)).unwrap();
            if rec.journal.live_records() >= 16 {
                let folded = rec
                    .journal
                    .compact_into(&mut store, &FaultPlan::none())
                    .unwrap();
                assert_eq!(folded, 16);
            }
            max_bytes = max_bytes.max(rec.journal.bytes);
        }
        // The file never outgrows ~one compaction window of records.
        let cap = 16 * 1024;
        assert!(max_bytes < cap, "journal grew to {max_bytes} bytes");
        assert!(rec.journal.live_records() <= 16, "under the record cap");
        assert_eq!(rec.journal.next_seq(), 120);
        assert!(rec.journal.compacted_through() >= 112);
        drop(rec);

        // Reopening with the store replays every record, in order.
        let again = FlowJournal::open_with_store(&path, &header, &mut store).unwrap();
        assert_eq!(again.records.len(), 120);
        assert!(!again.dropped_torn_tail);
        for (i, r) in again.records.iter().enumerate() {
            assert_eq!(*r, record(i % 5), "record {i}");
        }

        // Opening WITHOUT the store is a loud, typed refusal — the
        // compacted prefix is unreachable, never silently dropped.
        let err = FlowJournal::open(&path, &header).unwrap_err();
        assert!(matches!(err, ServeError::Journal(_)));
        assert!(err.to_string().contains("open it with its store"), "{err}");
    }

    #[test]
    fn kill_between_segment_commit_and_file_rewrite_recovers() {
        let path = temp_journal("killwindow");
        let (_, _, header) = fixture();
        let mut store = store_for(&path);
        let mut rec = FlowJournal::open_with_store(&path, &header, &mut store).unwrap();
        for i in 0..4 {
            rec.journal.append(&record(i)).unwrap();
        }
        rec.journal
            .compact_into(&mut store, &FaultPlan::none())
            .unwrap();
        rec.journal.append(&record(4)).unwrap();
        rec.journal.append(&record(5)).unwrap();
        // Snapshot the file as it looks *before* the second compaction's
        // rewrite, then compact (segment now holds all 6 records) and put
        // the stale file back: exactly the kill-between-steps state.
        let stale = fs::read(&path).unwrap();
        rec.journal
            .compact_into(&mut store, &FaultPlan::none())
            .unwrap();
        drop(rec);
        fs::write(&path, &stale).unwrap();

        let recovered = FlowJournal::open_with_store(&path, &header, &mut store).unwrap();
        assert_eq!(recovered.records.len(), 6, "superset segment + live tail");
        assert_eq!(recovered.journal.compacted_through(), 4);
        let mut journal = recovered.journal;
        // The interrupted compaction simply reruns.
        assert_eq!(
            journal
                .compact_into(&mut store, &FaultPlan::none())
                .unwrap(),
            2
        );
        drop(journal);
        let clean = FlowJournal::open_with_store(&path, &header, &mut store).unwrap();
        assert_eq!(clean.records.len(), 6);
        assert_eq!(clean.journal.compacted_through(), 6);
    }

    #[test]
    fn torn_tail_after_compaction_is_healed() {
        let path = temp_journal("compact-torn");
        let (_, _, header) = fixture();
        let mut store = store_for(&path);
        let mut rec = FlowJournal::open_with_store(&path, &header, &mut store).unwrap();
        for i in 0..3 {
            rec.journal.append(&record(i)).unwrap();
        }
        rec.journal
            .compact_into(&mut store, &FaultPlan::none())
            .unwrap();
        rec.journal.append(&record(3)).unwrap();
        drop(rec);
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"seq\":4,\"checksum\":\"dead");
        fs::write(&path, &text).unwrap();

        let healed = FlowJournal::open_with_store(&path, &header, &mut store).unwrap();
        assert!(healed.dropped_torn_tail);
        assert_eq!(healed.records.len(), 4);
        assert_eq!(healed.journal.next_seq(), 4);
        assert_eq!(healed.journal.live_records(), 1);
        drop(healed);
        let clean = FlowJournal::open_with_store(&path, &header, &mut store).unwrap();
        assert!(!clean.dropped_torn_tail);
        assert_eq!(clean.records.len(), 4);
    }

    #[test]
    fn missing_journal_segment_is_a_typed_store_error() {
        let path = temp_journal("lost-segment");
        let (_, _, header) = fixture();
        let mut store = store_for(&path);
        let mut rec = FlowJournal::open_with_store(&path, &header, &mut store).unwrap();
        for i in 0..3 {
            rec.journal.append(&record(i)).unwrap();
        }
        rec.journal
            .compact_into(&mut store, &FaultPlan::none())
            .unwrap();
        drop(rec);
        // Lose the store (a different, empty store directory).
        let other_dir = path.parent().unwrap().join("wrong-store");
        let mut empty = PageStore::open(other_dir).unwrap();
        let err = FlowJournal::open_with_store(&path, &header, &mut empty).unwrap_err();
        assert!(matches!(err, ServeError::Store(_)), "{err}");
        assert!(err.to_string().contains("missing from the store"), "{err}");
    }

    #[test]
    fn wrong_job_or_version_is_rejected() {
        let path = temp_journal("identity");
        let (net, cfg, header) = fixture();
        FlowJournal::open(&path, &header).unwrap();

        let other = generate(&GeneratorConfig::sized("other", 4, 100));
        let other_header = JournalHeader::describe(&other, &cfg).unwrap();
        let err = FlowJournal::open(&path, &other_header).unwrap_err();
        assert!(err.to_string().contains("different job"), "{err}");

        // A journal from before `FlowConfig` lost its `backend`/`kernel`
        // fields: same design, but its flow checksum covered them.
        let legacy_cfg = serde_json::to_string(&cfg).unwrap().replacen(
            '{',
            r#"{"backend":"Auto","kernel":"Inherit","#,
            1,
        );
        let legacy = JournalHeader {
            flow_checksum: checksum_hex(legacy_cfg.as_bytes()),
            ..header.clone()
        };
        assert_eq!(legacy.design_checksum, header.design_checksum);
        let legacy_path = temp_journal("legacy-flow-config");
        fs::write(&legacy_path, header_line(&legacy).unwrap()).unwrap();
        let err = FlowJournal::open(&legacy_path, &header).unwrap_err();
        assert!(matches!(err, ServeError::Journal(_)), "{err}");
        assert!(err.to_string().contains("different job"), "{err}");

        let future = JournalHeader {
            version: JOURNAL_VERSION + 1,
            ..JournalHeader::describe(&net, &cfg).unwrap()
        };
        let text = fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[0] = serde_json::to_string(&future).unwrap();
        fs::write(&path, lines.join("\n") + "\n").unwrap();
        let err = FlowJournal::open(&path, &header).unwrap_err();
        assert!(err.to_string().contains("not supported"), "{err}");
    }
}
