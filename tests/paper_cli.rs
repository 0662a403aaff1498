//! The paper's experiments from outside the process: `gcnt table1` … `gcnt
//! ablation` refuse an option they do not read, and a valued option
//! without its value, with exit 1 before any side effect, and a small run
//! writes its `results/<name>.json`. Every run works in a temp directory
//! of its own, so the repository's `results/` is never touched.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use serde::Deserialize;

const EXPERIMENTS: [&str; 7] = [
    "table1", "table2", "table3", "fig8", "fig9", "fig10", "ablation",
];

fn temp_dir() -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gcnt-paper-cli-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs `gcnt` in `dir` and returns `(stderr, exit code)`.
fn gcnt(dir: &Path, args: &[&str]) -> (String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_gcnt"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run gcnt");
    (
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
        out.status.code().expect("gcnt exited normally"),
    )
}

#[test]
fn every_experiment_refuses_an_unread_or_valueless_option_before_any_work() {
    for experiment in EXPERIMENTS {
        let valued = if experiment == "fig10" {
            "--max-nodes"
        } else {
            "--nodes"
        };
        for (args, named) in [
            (vec![experiment, "--node", "300"], "--node"),
            (vec![experiment, valued], valued),
        ] {
            let dir = temp_dir();
            let (stderr, exit) = gcnt(&dir, &args);
            assert_eq!(exit, 1, "{args:?}: {stderr}");
            assert!(stderr.contains(named), "{args:?}: {stderr}");
            assert!(!dir.join("results").exists(), "{args:?} created results/");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// One design's row of Table 1, as far as this test reads it.
#[derive(Deserialize)]
struct Table1Row {
    design: String,
}

/// One depth's curve of Fig. 8, as far as this test reads it.
#[derive(Deserialize)]
struct Fig8Curve {
    depth: usize,
    test_accuracy: Vec<f64>,
}

/// Runs one experiment in a fresh directory and returns its parsed
/// `results/<name>.json`.
fn results_of<T: Deserialize>(args: &[&str]) -> T {
    let dir = temp_dir();
    let (stderr, exit) = gcnt(&dir, args);
    assert_eq!(exit, 0, "{args:?}: {stderr}");
    let path = dir.join("results").join(format!("{}.json", args[0]));
    let text = std::fs::read_to_string(&path).expect("the run wrote its results");
    std::fs::remove_dir_all(&dir).ok();
    serde_json::from_str(&text).expect("results parse")
}

#[test]
fn small_runs_write_their_results() {
    let table1: Vec<Table1Row> = results_of(&["table1", "--nodes", "3000"]);
    let designs: Vec<&str> = table1.iter().map(|row| row.design.as_str()).collect();
    assert_eq!(designs, ["B1", "B2", "B3", "B4"]);

    let fig8: Vec<Fig8Curve> = results_of(&[
        "fig8",
        "--nodes",
        "300",
        "--epochs",
        "1",
        "--eval-every",
        "1",
    ]);
    let depths: Vec<usize> = fig8.iter().map(|curve| curve.depth).collect();
    assert_eq!(depths, [1, 2, 3]);
    assert!(fig8.iter().all(|curve| curve.test_accuracy.len() == 1));
}
