//! Machine-readable CLI reporting with a single stable prefix convention.
//!
//! Every line the `gcnt` binary emits for *machines* — CI greps, the
//! kill/resume integration tests, the network fault matrix — goes through
//! this module, so the convention lives in exactly one place:
//!
//! * `METRICS_<EVENT> key=value ...` — metrics-snapshot bookkeeping.
//!   Existing events: `METRICS_SNAPSHOT` (a snapshot file was written).
//! * `NET_<EVENT> key=value ...` — lifecycle of `gcnt netserve` and the
//!   in-process server of `gcnt loadgen`. Existing events: `NET_READY`
//!   (the listener is bound and accepting), `NET_DRAIN` (graceful drain
//!   finished, with the lifetime summary).
//! * `LOADGEN_<EVENT> key=value ...` — results from `gcnt loadgen`.
//!   Existing events: `LOADGEN_FLOW` (one flow job's outcome checksum),
//!   `LOADGEN_DONE` (session/error totals and latency quantiles).
//!
//! Grammar, kept deliberately grep/awk-trivial:
//!
//! * one event per line, prefix first;
//! * fields are space-separated `key=value` pairs, keys are
//!   `[a-z_]+`, values contain no spaces;
//! * field order within an event is fixed (append-only: new fields go
//!   last, existing fields never move or disappear — CI pipelines pattern
//!   match on them).
//!
//! Human-facing output (tables, summaries) does not come through here and
//! carries no prefix.

use std::error::Error;
use std::fmt::Display;
use std::path::Path;

use gcnt_obs::Snapshot;

/// Builder for one machine-readable line. Construct with [`metrics`],
/// [`net`] or [`loadgen`], chain [`Line::field`], finish with
/// [`Line::emit`].
pub struct Line {
    buf: String,
}

/// Starts a `METRICS_<event>` line.
pub fn metrics(event: &str) -> Line {
    Line {
        buf: format!("METRICS_{event}"),
    }
}

/// Starts a `NET_<event>` line.
pub fn net(event: &str) -> Line {
    Line {
        buf: format!("NET_{event}"),
    }
}

/// Starts a `LOADGEN_<event>` line.
pub fn loadgen(event: &str) -> Line {
    Line {
        buf: format!("LOADGEN_{event}"),
    }
}

impl Line {
    /// Appends one `key=value` field. `value` is rendered with `Display`;
    /// it must not contain spaces (debug-asserted) or the line stops being
    /// machine-parseable.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Display) -> Self {
        let rendered = value.to_string();
        debug_assert!(
            !rendered.contains(' ') && !rendered.contains('\n'),
            "report field value must be atomic: {key}={rendered}"
        );
        self.buf.push(' ');
        self.buf.push_str(key);
        self.buf.push('=');
        self.buf.push_str(&rendered);
        self
    }

    /// Prints the finished line to stdout.
    pub fn emit(self) {
        println!("{}", self.buf);
    }

    /// The finished line without printing it (used by tests).
    pub fn into_string(self) -> String {
        self.buf
    }
}

/// Captures the global metrics registry and writes the snapshot to
/// `path`, emitting a `METRICS_SNAPSHOT` line. The format follows the
/// extension: `.prom` / `.txt` get Prometheus text exposition, anything
/// else (conventionally `.json`) gets the JSON document.
pub fn write_metrics_snapshot(path: &Path) -> Result<(), Box<dyn Error>> {
    let snap = Snapshot::capture(gcnt_obs::global());
    let (format, body) = match path.extension().and_then(|e| e.to_str()) {
        Some("prom") | Some("txt") => ("prometheus", snap.to_prometheus()),
        _ => ("json", snap.to_json()),
    };
    gcnt_store::atomic_write(path, body.as_bytes())
        .map_err(|e| format!("cannot write metrics snapshot '{}': {e}", path.display()))?;
    metrics("SNAPSHOT")
        .field("path", path.display())
        .field("format", format)
        .emit();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_grammar_is_stable() {
        let line = loadgen("FLOW")
            .field("job", "load-0")
            .field("shard", 0)
            .field("resumed", 0)
            .field("checksum", format_args!("{:016x}", 0xabcd_u64))
            .into_string();
        assert_eq!(
            line,
            "LOADGEN_FLOW job=load-0 shard=0 resumed=0 checksum=000000000000abcd"
        );
        assert_eq!(
            metrics("SNAPSHOT").field("path", "m.json").into_string(),
            "METRICS_SNAPSHOT path=m.json"
        );
        assert_eq!(
            net("READY").field("addr", "127.0.0.1:7421").into_string(),
            "NET_READY addr=127.0.0.1:7421"
        );
        assert_eq!(
            loadgen("DONE").field("sessions", 1000).into_string(),
            "LOADGEN_DONE sessions=1000"
        );
    }

    #[test]
    fn snapshot_file_format_follows_extension() {
        let dir = std::env::temp_dir().join(format!("gcnt-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("m.json");
        let prom = dir.join("m.prom");
        write_metrics_snapshot(&json).unwrap();
        write_metrics_snapshot(&prom).unwrap();
        let json_text = std::fs::read_to_string(&json).unwrap();
        let prom_text = std::fs::read_to_string(&prom).unwrap();
        assert!(json_text.starts_with('{'));
        assert!(json_text.contains("\"gcnt_tensor_spmm_rows_total\""));
        assert!(prom_text.starts_with("# HELP "));
        assert!(prom_text.contains("# TYPE gcnt_serve_journal_fsync_ns histogram"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
