//! Kill/resume integration tests for the serving layer: a flow job whose
//! process dies mid-run must, on restart, resume from its write-ahead
//! journal to a **bit-identical** outcome.
//!
//! Two kinds of kill are exercised:
//!
//! * an external `SIGKILL` delivered to `gcnt loadgen` while its
//!   in-process server's journal is growing (the timing is racy by design
//!   — whether the kill lands mid-flow or after completion, the rerun's
//!   checksum must match the reference);
//! * on unix, three deterministic in-process aborts planned with a
//!   `FaultPlan` — right after the first record reaches disk, and the two
//!   store-backed ones, after a record and between a compaction's store
//!   commit and its journal rewrite — each in a copy of this test binary
//!   re-run as the victim.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gcnt-serve-kill-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// `gcnt loadgen` running one flow job on one shard of its in-process
/// server, journaling under `dir`.
fn loadgen(dir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gcnt"));
    cmd.args([
        "loadgen",
        "--sessions",
        "1",
        "--workers",
        "1",
        "--shards",
        "1",
        "--flow-jobs",
        "1",
        "--journal-dir",
    ])
    .arg(dir);
    cmd
}

/// Runs [`loadgen`] to completion and returns its stdout.
fn run_loadgen(dir: &Path) -> String {
    let out = loadgen(dir).output().expect("run gcnt loadgen");
    assert!(
        out.status.success(),
        "loadgen failed: {}\n{}",
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Extracts `key=value` from a `LOADGEN_FLOW ...` line.
fn flow_field(stdout: &str, key: &str) -> String {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("LOADGEN_FLOW"))
        .unwrap_or_else(|| panic!("no LOADGEN_FLOW line in:\n{stdout}"));
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= field in: {line}"))
        .to_string()
}

fn wal_lines(dir: &Path) -> usize {
    std::fs::read_to_string(dir.join("shard-0").join("job-load-0.wal"))
        .map(|t| t.lines().count())
        .unwrap_or(0)
}

#[test]
fn sigkill_mid_flow_resumes_to_identical_checksum() {
    // Reference: an uninterrupted run in its own journal dir.
    let reference = run_loadgen(&temp_dir("ref"));
    let want = flow_field(&reference, "checksum");
    assert_eq!(flow_field(&reference, "resumed"), "0");

    // Victim: kill the process as soon as the journal holds at least the
    // header and one committed record.
    let kill_dir = temp_dir("victim");
    let mut child = loadgen(&kill_dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn victim");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if wal_lines(&kill_dir) >= 2 || child.try_wait().expect("try_wait").is_some() {
            break;
        }
        assert!(Instant::now() < deadline, "journal never appeared");
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = child.kill(); // SIGKILL on unix; no-op if already exited
    let _ = child.wait();

    // Rerun in the victim's dir: whatever the journal holds, the outcome
    // must be bit-identical to the uninterrupted reference.
    let resumed = run_loadgen(&kill_dir);
    assert_eq!(
        flow_field(&resumed, "checksum"),
        want,
        "resumed outcome diverged from the uninterrupted run:\n{resumed}"
    );
    // The poll loop guaranteed at least one committed record (or a clean
    // finish, which journals all of them) before the kill.
    assert!(
        flow_field(&resumed, "resumed").parse::<usize>().unwrap() >= 1,
        "nothing was resumed:\n{resumed}"
    );
}

/// The in-process aborts, made deterministic by a [`FaultPlan`]. Each test
/// re-runs its own binary with [`CHILD_ROLE`] set to `"<fault> <dir>"`; in
/// that role it runs a flow job with the fault planned, and the fault
/// aborts it.
#[cfg(unix)]
mod injected {
    use super::temp_dir;
    use gcn_testability::dft::flow::FlowConfig;
    use gcn_testability::gcn::features::{raw_features_of, FeatureNormalizer};
    use gcn_testability::gcn::{Gcn, GcnConfig, MultiStageGcn};
    use gcn_testability::netlist::{generate, GeneratorConfig, Netlist};
    use gcn_testability::runtime::FaultPlan;
    use gcn_testability::serve::{FlowResponse, JobStore, ServeConfig, ServeCore, StorePolicy};
    use std::os::unix::process::ExitStatusExt;
    use std::path::Path;
    use std::process::Command;

    /// Set only on the victim copy of this test binary.
    const CHILD_ROLE: &str = "GCNT_SERVE_KILL_CHILD";
    const SIGABRT: i32 = 6;

    /// A seeded 400-node design, a seeded (untrained) 2-stage cascade and
    /// a permissive threshold, so the untrained model keeps inserting for
    /// several batches.
    fn fixture() -> (Netlist, FeatureNormalizer, MultiStageGcn, FlowConfig) {
        let net = generate(&GeneratorConfig::sized("killfixture", 7, 400));
        let cfg = GcnConfig {
            embed_dims: vec![8, 8],
            fc_dims: vec![8],
            ..GcnConfig::default()
        };
        let stages = vec![
            Gcn::new(&cfg, &mut gcn_testability::nn::seeded_rng(41)),
            Gcn::new(&cfg, &mut gcn_testability::nn::seeded_rng(42)),
        ];
        let normalizer = FeatureNormalizer::fit(&[&raw_features_of(&net).unwrap()]);
        let flow = FlowConfig {
            max_iterations: 5,
            ops_per_iteration: 2,
            prob_threshold: 0.05,
            ..FlowConfig::default()
        };
        (
            net,
            normalizer,
            MultiStageGcn::from_stages(stages, 0.5),
            flow,
        )
    }

    /// A storeless core carrying `plan`.
    fn core(plan: FaultPlan) -> ServeCore {
        let (_, normalizer, model, _) = fixture();
        ServeCore::new(normalizer, model, ServeConfig::default()).with_faults(plan)
    }

    /// A core over the store in `dir`, compacting after every record.
    fn store_core(dir: &Path, plan: FaultPlan) -> ServeCore {
        let policy = StorePolicy {
            compact_after_records: 1,
        };
        let store = JobStore::open(&dir.join("store"), policy).unwrap();
        core(plan).with_store(store)
    }

    /// Runs the fixture's flow job on `core`, journaling to `dir/job.wal`.
    fn run_job(mut core: ServeCore, dir: &Path) -> (FlowResponse, Netlist, ServeCore) {
        let (mut net, _, _, cfg) = fixture();
        let response = core
            .run_flow_job(&mut net, &cfg, &dir.join("job.wal"), None)
            .unwrap();
        (response, net, core)
    }

    /// The storeless, uninterrupted run: its outcome as JSON and its
    /// final netlist.
    fn reference() -> (String, Netlist) {
        let (response, net, _) = run_job(core(FaultPlan::none()), &temp_dir("ref"));
        assert!(
            response.journal_records >= 3,
            "the fixture must commit batches past the kill points"
        );
        (serde_json::to_string(&response.outcome).unwrap(), net)
    }

    /// In the victim role, runs the planned fault and never returns.
    fn victim_if_asked() {
        let Ok(role) = std::env::var(CHILD_ROLE) else {
            return;
        };
        let (fault, dir) = role.split_once(' ').expect("role is `<fault> <dir>`");
        let dir = Path::new(dir);
        let mut core = match fault {
            "kill_after_first_record" => core(FaultPlan::none().with_kill_after_record(0)),
            // Record 0 is compacted into the store first, so the resume
            // reads one batch from pages and one from the journal file.
            "kill_after_record" => store_core(dir, FaultPlan::none().with_kill_after_record(1)),
            "kill_mid_compaction" => store_core(dir, FaultPlan::none().with_kill_mid_compaction()),
            other => panic!("unknown victim fault `{other}`"),
        };
        let (mut net, _, _, cfg) = fixture();
        let result = core.run_flow_job(&mut net, &cfg, &dir.join("job.wal"), None);
        panic!("the planned {fault} never fired: {result:?}");
    }

    /// Re-runs test `test` of this binary as the victim of `fault` over
    /// `dir` and asserts it died by the injected abort.
    fn kill(test: &str, fault: &str, dir: &Path) {
        let out = Command::new(std::env::current_exe().unwrap())
            .args(["--exact", test, "--nocapture", "--test-threads", "1"])
            .env(CHILD_ROLE, format!("{fault} {}", dir.display()))
            .output()
            .unwrap();
        assert_eq!(
            out.status.signal(),
            Some(SIGABRT),
            "{fault}: the victim must die by the injected abort, got {:?}:\n{}",
            out.status,
            String::from_utf8_lossy(&out.stdout)
        );
    }

    /// The kill is deterministic: the core aborts the instant record 0 is
    /// fsynced, so the journal holds its header and exactly one record,
    /// and the rerun resumes exactly one batch.
    #[test]
    fn injected_kill_after_first_record_resumes_deterministically() {
        victim_if_asked();
        let dir = temp_dir("inject");
        kill(
            "injected::injected_kill_after_first_record_resumes_deterministically",
            "kill_after_first_record",
            &dir,
        );
        let journal = std::fs::read_to_string(dir.join("job.wal")).unwrap();
        assert_eq!(
            journal.lines().count(),
            2,
            "header + exactly one committed record"
        );

        let (want, ref_net) = reference();
        let (resumed, net, _) = run_job(core(FaultPlan::none()), &dir);
        assert_eq!(resumed.resumed_batches, 1);
        assert_eq!(serde_json::to_string(&resumed.outcome).unwrap(), want);
        assert_eq!(net, ref_net, "the resumed netlist differs");
    }

    /// The store-backed kills — after a record, and between a compaction's
    /// store commit and its journal rewrite.
    #[test]
    fn store_backed_kills_resume_bitwise_and_scrub_clean() {
        victim_if_asked();
        let (want, ref_net) = reference();
        for fault in ["kill_after_record", "kill_mid_compaction"] {
            let dir = temp_dir(fault);
            kill(
                "injected::store_backed_kills_resume_bitwise_and_scrub_clean",
                fault,
                &dir,
            );

            let (resumed, net, mut core) = run_job(store_core(&dir, FaultPlan::none()), &dir);
            assert!(resumed.resumed_batches >= 1, "{fault}: nothing was resumed");
            assert_eq!(
                serde_json::to_string(&resumed.outcome).unwrap(),
                want,
                "{fault}: the resumed outcome differs from a clean run's"
            );
            assert_eq!(net, ref_net, "{fault}: the resumed netlist differs");
            let found = core.store_mut().unwrap().store_mut().scrub().unwrap();
            assert!(found.is_empty(), "{fault}: scrub found {found:?}");
        }
    }
}
