//! The SIGTERM drill: `gcnt netserve` under load from `gcnt loadgen`,
//! stopped by `kill -TERM`, must drain gracefully — exit 0 with a
//! `NET_DRAIN` summary and no request stranded in a shard queue — and lose
//! no flow job: a fresh server over the same journal directories resumes
//! every job to the same checksum.
#![cfg(unix)]

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

fn gcnt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gcnt"))
}

/// A running `gcnt netserve` and the rest of its stdout.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    /// Starts a 2-shard server journaling under `journal_dir` and waits
    /// for its `NET_READY` line.
    fn start(journal_dir: &Path) -> Server {
        let mut child = gcnt()
            .args(["netserve", "--shards", "2", "--journal-dir"])
            .arg(journal_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn gcnt netserve");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        while !line.starts_with("NET_READY ") {
            line.clear();
            let read = stdout.read_line(&mut line).expect("read server stdout");
            assert!(read > 0, "netserve exited before NET_READY");
        }
        let addr = field(&line, "addr").to_string();
        Server {
            child,
            stdout,
            addr,
        }
    }

    /// Sends SIGTERM, asserts a clean exit, and returns the `NET_DRAIN`
    /// line.
    fn terminate(mut self) -> String {
        let status = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("run kill");
        assert!(status.success(), "kill -TERM failed");
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .expect("read server stdout");
        let exit = self.child.wait().expect("wait for netserve");
        assert!(
            exit.success(),
            "SIGTERM must drain to exit 0: {exit:?}\n{rest}"
        );
        rest.lines()
            .find(|l| l.starts_with("NET_DRAIN "))
            .unwrap_or_else(|| panic!("no NET_DRAIN line in:\n{rest}"))
            .to_string()
    }
}

/// The value of `key=value` in a report line.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {key}= in: {line}"))
}

/// Runs `gcnt loadgen` against `addr` and returns each flow job's
/// `(checksum, resumed)` by job id.
fn load(addr: &str, sessions: &str) -> BTreeMap<String, (String, usize)> {
    let out = gcnt()
        .args(["loadgen", "--addr", addr, "--sessions", sessions])
        .args(["--workers", "2", "--flow-jobs", "2"])
        .output()
        .expect("run gcnt loadgen");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(out.status.success(), "loadgen failed:\n{stdout}");
    let done = stdout
        .lines()
        .find(|l| l.starts_with("LOADGEN_DONE "))
        .unwrap_or_else(|| panic!("no LOADGEN_DONE line in:\n{stdout}"));
    assert_eq!(field(done, "transport_errors"), "0", "{done}");
    stdout
        .lines()
        .filter(|l| l.starts_with("LOADGEN_FLOW "))
        .map(|l| {
            let resumed = field(l, "resumed").parse().expect("a count");
            (
                field(l, "job").to_string(),
                (field(l, "checksum").to_string(), resumed),
            )
        })
        .collect()
}

#[test]
fn sigterm_drains_cleanly_and_a_restart_resumes_every_flow_job() {
    let journal_dir = std::env::temp_dir().join(format!("gcnt-net-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);

    let server = Server::start(&journal_dir);
    let first = load(&server.addr, "8");
    let drain = server.terminate();
    assert_eq!(field(&drain, "pending_at_drain"), "0", "{drain}");
    assert_eq!(first.len(), 2, "both flow jobs answered: {first:?}");

    let server = Server::start(&journal_dir);
    let second = load(&server.addr, "2");
    server.terminate();
    let checksums = |runs: &BTreeMap<String, (String, usize)>| {
        runs.iter()
            .map(|(job, (sum, _))| (job.clone(), sum.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        checksums(&first),
        checksums(&second),
        "a restarted server must resume every job to the same outcome"
    );
    assert!(
        second.values().all(|&(_, resumed)| resumed >= 1),
        "every job resumed from its journal: {second:?}"
    );
    let _ = std::fs::remove_dir_all(&journal_dir);
}
