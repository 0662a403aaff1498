//! Kill/resume integration tests for the serving layer: a flow job whose
//! process dies mid-run must, on restart, resume from its write-ahead
//! journal to a **bit-identical** outcome.
//!
//! Three kill mechanisms are exercised:
//!
//! * an external `SIGKILL` delivered to `gcnt loadgen` while its
//!   in-process server's journal is growing (the timing is racy by design
//!   — whether the kill lands mid-flow or after completion, the rerun's
//!   checksum must match the reference);
//! * with `--features fault-inject`, a deterministic in-process abort of
//!   `gcnt loadgen` immediately after a chosen record reaches disk;
//! * with `--features fault-inject`, the two store-backed aborts — after
//!   a record, and between a compaction's store commit and its journal
//!   rewrite — in a copy of this test binary re-run as the victim.

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

/// With fault injection the kill is deterministic: the `--faults` plan
/// reaches the in-process server's cores, which abort the instant record
/// 0 is fsynced, so the rerun always resumes exactly one batch.
#[cfg(feature = "fault-inject")]
#[test]
fn injected_kill_after_first_record_resumes_deterministically() {
    let dir = temp_dir("inject");
    let plan = temp_dir("inject-plan").join("faults.json");
    std::fs::write(&plan, r#"{"kill_after_record": 0}"#).expect("write plan");

    let out = loadgen(&dir)
        .arg("--faults")
        .arg(&plan)
        .output()
        .expect("run victim");
    assert!(
        !out.status.success(),
        "kill_after_record run must die, got:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert_eq!(wal_lines(&dir), 2, "header + exactly one committed record");

    // Clean reference in a separate dir, then the deterministic resume.
    let want = flow_field(&run_loadgen(&temp_dir("inject-ref")), "checksum");
    let resumed = run_loadgen(&dir);
    assert_eq!(flow_field(&resumed, "checksum"), want);
    assert_eq!(flow_field(&resumed, "resumed"), "1");
}

/// The store-backed process kills. The test re-runs its own binary with
/// [`CHILD_ROLE`] set to `"<fault> <dir>"`; in that role it runs the flow
/// job with the fault planned, and the fault aborts it.
#[cfg(all(unix, feature = "fault-inject"))]
mod store_backed {
    use super::temp_dir;
    use gcn_testability::dft::flow::FlowConfig;
    use gcn_testability::gcn::features::{raw_features_of, FeatureNormalizer};
    use gcn_testability::gcn::{Gcn, GcnConfig, MultiStageGcn};
    use gcn_testability::netlist::{generate, GeneratorConfig, Netlist};
    use gcn_testability::runtime::FaultPlan;
    use gcn_testability::serve::{JobStore, ServeConfig, ServeCore, StorePolicy};
    use std::os::unix::process::ExitStatusExt;
    use std::path::Path;
    use std::process::Command;

    /// Set only on the victim copy of this test binary.
    const CHILD_ROLE: &str = "GCNT_SERVE_KILL_CHILD";
    const TEST: &str = "store_backed::store_backed_kills_resume_bitwise_and_scrub_clean";
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

    /// A core over the store in `dir`, compacting after every record.
    fn store_core(dir: &Path, plan: FaultPlan) -> ServeCore {
        let (_, normalizer, model, _) = fixture();
        let policy = StorePolicy {
            compact_after_records: 1,
        };
        let store = JobStore::open(&dir.join("store"), policy).unwrap();
        ServeCore::new(normalizer, model, ServeConfig::default())
            .with_faults(plan)
            .with_store(store)
    }

    fn victim(fault: &str, dir: &Path) -> ! {
        let plan = match fault {
            // Record 0 is compacted into the store first, so the resume
            // reads one batch from pages and one from the journal file.
            "kill_after_record" => FaultPlan::none().with_kill_after_record(1),
            "kill_mid_compaction" => FaultPlan::none().with_kill_mid_compaction(),
            other => panic!("unknown victim fault `{other}`"),
        };
        let (mut net, _, _, cfg) = fixture();
        let result = store_core(dir, plan).run_flow_job(&mut net, &cfg, &dir.join("job.wal"), None);
        panic!("the planned {fault} never fired: {result:?}");
    }

    #[test]
    fn store_backed_kills_resume_bitwise_and_scrub_clean() {
        if let Ok(role) = std::env::var(CHILD_ROLE) {
            let (fault, dir) = role.split_once(' ').expect("role is `<fault> <dir>`");
            victim(fault, Path::new(dir));
        }

        // Storeless, uninterrupted reference.
        let (mut ref_net, normalizer, model, cfg) = fixture();
        let reference = ServeCore::new(normalizer, model, ServeConfig::default())
            .run_flow_job(
                &mut ref_net,
                &cfg,
                &temp_dir("store-ref").join("job.wal"),
                None,
            )
            .unwrap();
        assert!(
            reference.journal_records >= 3,
            "the fixture must commit batches past the kill points"
        );
        let want = serde_json::to_string(&reference.outcome).unwrap();

        for fault in ["kill_after_record", "kill_mid_compaction"] {
            let dir = temp_dir(fault);
            let out = Command::new(std::env::current_exe().unwrap())
                .args(["--exact", TEST, "--nocapture", "--test-threads", "1"])
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

            let (mut net, _, _, cfg) = fixture();
            let mut core = store_core(&dir, FaultPlan::none());
            let resumed = core
                .run_flow_job(&mut net, &cfg, &dir.join("job.wal"), None)
                .unwrap();
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
