//! `gcnt lint` from outside the process: the text report, the JSON report
//! and the exit code on a generated design and on one small design per
//! structural rule. The expected bytes are literals, so a change to any
//! rule's wording, order or severity shows up here first.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_dir() -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gcnt-lint-cli-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs `gcnt` and returns `(stdout, stderr, exit code)`.
fn gcnt(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_gcnt"))
        .args(args)
        .output()
        .expect("run gcnt");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
        out.status.code().expect("gcnt exited normally"),
    )
}

/// Lints `design` in both formats and checks each against its literal.
/// A report with `errors > 0` exits 1 and says so on stderr.
fn check(name: &str, design: &str, text: &str, json: &str, errors: usize) {
    let dir = temp_dir();
    let path = dir.join(format!("{name}.bench"));
    std::fs::write(&path, design).expect("write design");
    let path = path.to_str().expect("utf-8 path");
    let (stderr, exit) = match errors {
        0 => (String::new(), 0),
        n => (format!("error: lint found {n} error(s)\n"), 1),
    };
    for (args, want) in [
        (vec!["lint", path], text),
        (vec!["lint", path, "--format", "json"], json),
    ] {
        let got = gcnt(&args);
        assert_eq!(
            got,
            (want.to_string(), stderr.clone(), exit),
            "{name}: {args:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_generated_design_lints_clean() {
    let dir = temp_dir();
    let path = dir.join("gen.bench");
    let path = path.to_str().expect("utf-8 path");
    let (_, _, code) = gcnt(&["generate", "--nodes", "300", "--seed", "5", "--out", path]);
    assert_eq!(code, 0);
    let design = std::fs::read_to_string(path).expect("read generated design");
    check(
        "generated",
        &design,
        "no findings\n",
        "{\n  \"findings\": []\n}\n",
        0,
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_dangling_gate_is_a_warning_only() {
    check(
        "nl003",
        "INPUT(a)\nINPUT(b)\ng = AND(a, b)\nh = OR(a, b)\nOUTPUT(h)\n",
        "warning [NL003 dangling-net] netlist: node 2 (And) drives nothing\n\
         0 error(s), 1 warning(s), 0 note(s)\n",
        r#"{
  "findings": [
    {
      "rule": "NL003",
      "severity": "Warning",
      "context": "netlist",
      "message": "node 2 (And) drives nothing"
    }
  ]
}
"#,
        0,
    );
}

/// `y` (node 1) only reads the `x1`/`x2` loop; the finding names `x1`
/// (node 2), which is on it.
#[test]
fn a_cycle_is_reported_through_a_node_on_it() {
    check(
        "nl001",
        "INPUT(a)\ny = AND(a, x1)\nx1 = AND(a, x2)\nx2 = OR(a, x1)\nOUTPUT(y)\n",
        "error [NL001 combinational-cycle] netlist: combinational cycle through node 2 (And)\n\
         1 error(s), 0 warning(s), 0 note(s)\n",
        r#"{
  "findings": [
    {
      "rule": "NL001",
      "severity": "Error",
      "context": "netlist",
      "message": "combinational cycle through node 2 (And)"
    }
  ]
}
"#,
        1,
    );
}

#[test]
fn a_one_input_and_is_a_bad_arity() {
    check(
        "nl002",
        "INPUT(a)\ny = AND(a)\nOUTPUT(y)\n",
        "error [NL002 bad-arity] netlist: node 1 (And) has 1 fanin(s), expected >= 2\n\
         1 error(s), 0 warning(s), 0 note(s)\n",
        r#"{
  "findings": [
    {
      "rule": "NL002",
      "severity": "Error",
      "context": "netlist",
      "message": "node 1 (And) has 1 fanin(s), expected >= 2"
    }
  ]
}
"#,
        1,
    );
}

/// Input `b` drives nothing, but the design does not build, so only the
/// floating input is reported.
#[test]
fn a_gate_without_drivers_is_a_floating_input() {
    check(
        "nl004",
        "INPUT(a)\nINPUT(b)\ny = NOT()\nz = AND(a, y)\nOUTPUT(z)\n",
        "error [NL004 floating-input] netlist: node 2 (Not) has no drivers\n\
         1 error(s), 0 warning(s), 0 note(s)\n",
        r#"{
  "findings": [
    {
      "rule": "NL004",
      "severity": "Error",
      "context": "netlist",
      "message": "node 2 (Not) has no drivers"
    }
  ]
}
"#,
        1,
    );
}
