//! What neither rustc nor clippy can see, read as text from the checked-out
//! tree: atomic orderings say why, the docs cite only declared benchmark
//! names, the README rule table is the lint registry, `CHANGES.md`
//! counts its entries, and only tests arm a fault. Each check is a small function over text, and each
//! test first plants a violation to prove the check still bites.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use gcn_testability::lint::registry::RULES;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// `(repo-relative path, text)` of every `.rs` file in the tree, skipping
/// build output (`target/`), experiment results (`results/`) and hidden
/// directories such as `.git/`.
fn rust_sources() -> Vec<(String, String)> {
    let mut files = Vec::new();
    let mut dirs = vec![root().to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(&dir).expect("readable directory") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if !(name.starts_with('.') || name == "target" || name == "results") {
                    dirs.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path.strip_prefix(root()).expect("under the root");
                let text = fs::read_to_string(&path).expect("UTF-8 source");
                files.push((rel.display().to_string(), text));
            }
        }
    }
    files
}

/// The atomic orderings stronger than `Relaxed`, spelled in halves so this
/// file does not match itself.
const STRONG_ORDERINGS: [&str; 4] = [
    concat!("Ordering::", "SeqCst"),
    concat!("Ordering::", "Acquire"),
    concat!("Ordering::", "Release"),
    concat!("Ordering::", "AcqRel"),
];

/// Lines (1-based) that use a strong ordering with no `// ORDERING:`
/// comment on the line or in the 3 lines above it.
fn uncommented_orderings(text: &str) -> Vec<usize> {
    let lines: Vec<&str> = text.lines().collect();
    (0..lines.len())
        .filter(|&i| STRONG_ORDERINGS.iter().any(|o| lines[i].contains(o)))
        .filter(|&i| {
            !lines[i.saturating_sub(3)..=i]
                .iter()
                .any(|l| l.contains("// ORDERING:"))
        })
        .map(|i| i + 1)
        .collect()
}

#[test]
fn every_strong_atomic_ordering_says_why() {
    let site = format!("x.store(1, {});", STRONG_ORDERINGS[2]);
    assert_eq!(uncommented_orderings(&site), [1]);
    assert_eq!(
        uncommented_orderings(&format!("// ORDERING: why\n\n\n{site}")),
        [0; 0]
    );
    assert_eq!(
        uncommented_orderings(&format!("// ORDERING: far\n\n\n\n{site}")),
        [5]
    );

    let bad: Vec<String> = rust_sources()
        .iter()
        .flat_map(|(path, text)| {
            uncommented_orderings(text)
                .into_iter()
                .map(move |line| format!("{path}:{line}"))
        })
        .collect();
    assert!(
        bad.is_empty(),
        "a non-Relaxed atomic ordering needs a `// ORDERING:` comment on its line \
         or in the 3 lines above: {bad:?}"
    );
}

/// The docs whose backticked benchmark names must be declared.
const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// Layer prefixes of `BENCHMARK.json`'s per-layer metric names.
const METRIC_LAYERS: [&str; 12] = [
    "tensor", "nn", "netlist", "core", "dft", "lint", "serve", "net", "store", "obs", "proc",
    "trace",
];

/// Whether a backticked token is shaped like a benchmark name: a per-layer
/// metric `layer.some_name` (the name carries an underscore, which file
/// names such as `store.json` and Rust paths do not) or a workload
/// `kind_design_NNk`.
fn benchmark_shaped(token: &str) -> bool {
    let word = |s: &str| {
        s.bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    };
    match token.split_once('.') {
        Some((layer, name)) => METRIC_LAYERS.contains(&layer) && name.contains('_') && word(name),
        None => {
            word(token)
                && token
                    .strip_suffix('k')
                    .and_then(|t| t.rsplit_once('_'))
                    .is_some_and(|(_, n)| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
        }
    }
}

/// `line: name` for each backticked benchmark-shaped name in `doc` that
/// `benchmark` (the text of `BENCHMARK.json`) declares neither whole nor
/// as the stem of a declared name, as the trace span
/// `core.session_refresh` is of `core.session_refresh_us`.
fn undeclared_benchmark_names(doc: &str, benchmark: &str) -> Vec<String> {
    let declared: Vec<&str> = benchmark
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect();
    let known = |token: &str| {
        declared.iter().any(|d| {
            d.strip_prefix(token)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('_'))
        })
    };
    doc.lines()
        .enumerate()
        .flat_map(|(i, line)| {
            line.split('`')
                .skip(1)
                .step_by(2)
                .filter(|token| benchmark_shaped(token) && !known(token))
                .map(move |token| format!("{}: {token}", i + 1))
        })
        .collect()
}

#[test]
fn docs_cite_only_declared_benchmark_names() {
    let planted = "`flow_b1_20k` spends `core.bogus_ms`; span `core.session_refresh`, \
                   file `store.json`, path `core::session`, workload `flow_b1_2k`";
    let benchmark = r#"{"name": "flow_b1_20k"}, {"name": "core.session_refresh_us"}"#;
    assert_eq!(
        undeclared_benchmark_names(planted, benchmark),
        ["1: core.bogus_ms", "1: flow_b1_2k"]
    );

    let benchmark = read("BENCHMARK.json");
    let bad: Vec<String> = DOCS
        .iter()
        .flat_map(|doc| {
            undeclared_benchmark_names(&read(doc), &benchmark)
                .into_iter()
                .map(move |hit| format!("{doc}:{hit}"))
        })
        .collect();
    assert!(
        bad.is_empty(),
        "cited in backticks but not declared in BENCHMARK.json: {bad:?}"
    );
}

/// Names of the retired micro-bench gate, spelled in halves so this file
/// does not name them.
const RETIRED: [&str; 3] = [
    concat!("BENCH_", "baseline.json"),
    concat!("bench", "_gate"),
    concat!("cargo", " bench"),
];

fn retired_names(text: &str) -> Vec<&'static str> {
    RETIRED
        .into_iter()
        .filter(|name| text.contains(name))
        .collect()
}

#[test]
fn the_retired_perf_gate_is_named_nowhere() {
    assert_eq!(
        retired_names(&format!("run `{}` first", RETIRED[1])),
        [RETIRED[1]]
    );

    let ci = ".github/workflows/ci.yml";
    let bad: Vec<String> = rust_sources()
        .into_iter()
        .chain(
            DOCS.into_iter()
                .chain([ci])
                .map(|p| (p.to_string(), read(p))),
        )
        .filter_map(|(path, text)| {
            let names = retired_names(&text);
            (!names.is_empty()).then(|| format!("{path}: {names:?}"))
        })
        .collect();
    assert!(
        bad.is_empty(),
        "the micro-bench gate is retired; cite a BENCHMARK.json metric: {bad:?}"
    );
}

/// The rule codes (two or three capitals, three digits) in backticks on
/// the table rows of `readme`.
fn table_rule_codes(readme: &str) -> BTreeSet<String> {
    let is_code = |s: &str| {
        let letters = s.chars().take_while(char::is_ascii_uppercase).count();
        (2..=3).contains(&letters)
            && s.len() == letters + 3
            && s.bytes().skip(letters).all(|b| b.is_ascii_digit())
    };
    readme
        .lines()
        .filter(|line| line.trim_start().starts_with('|'))
        .flat_map(|line| line.split('`').skip(1).step_by(2))
        .filter(|chunk| is_code(chunk))
        .map(String::from)
        .collect()
}

#[test]
fn readme_rule_table_is_the_lint_registry() {
    let registry: BTreeSet<String> = RULES.iter().map(|r| r.code.to_string()).collect();
    let rows: String = RULES
        .iter()
        .map(|r| format!("| `{}` | x |\n", r.code))
        .collect();
    assert_eq!(
        table_rule_codes(&format!("{rows}prose `ZZ999`\n")),
        registry
    );
    assert_ne!(
        table_rule_codes(&format!("{rows}| `ZZ999` | x |\n")),
        registry
    );

    assert_eq!(
        table_rule_codes(&read("README.md")),
        registry,
        "README rule-table codes vs gcn_testability::lint::registry::RULES"
    );
}

/// The number of `- PR N` lines in `changes`, or the first one whose N
/// breaks the count 1, 2, 3, …
fn pr_entries(changes: &str) -> Result<usize, String> {
    let mut count = 0;
    for line in changes.lines() {
        let Some(rest) = line.strip_prefix("- PR ") else {
            continue;
        };
        let n: String = rest.chars().take_while(char::is_ascii_digit).collect();
        count += 1;
        if n != count.to_string() {
            return Err(format!("`- PR {n}` where {count} was expected"));
        }
    }
    Ok(count)
}

#[test]
fn changes_entries_count_up_from_one() {
    assert_eq!(
        pr_entries("- PR 1 (a): x\n- PR 3 (b): y\n"),
        Err("`- PR 3` where 2 was expected".to_string())
    );

    let count = pr_entries(&read("CHANGES.md")).unwrap_or_else(|e| panic!("CHANGES.md: {e}"));
    assert!(count > 0, "CHANGES.md has no `- PR N` lines");
}

/// The `with_*` builders `ty`'s impl block in `source` defines: the lines
/// from `impl {ty} {` to the next line that is exactly `}`.
fn builders_of(source: &str, ty: &str) -> Vec<String> {
    source
        .lines()
        .skip_while(|line| *line != format!("impl {ty} {{"))
        .take_while(|line| *line != "}")
        .filter_map(|line| line.trim_start().strip_prefix("pub fn with_"))
        .map(|rest| {
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            format!("with_{name}")
        })
        .collect()
}

/// `text` with every `#[cfg(test)]` module blanked, line for line, so
/// line numbers survive.
fn without_test_modules(text: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = text.lines().collect();
    let mut i = 0;
    while i < lines.len() {
        let next = lines.get(i + 1).map_or("", |l| l.trim_start());
        if lines[i].trim() == "#[cfg(test)]" && next.starts_with("mod ") {
            let (mut depth, mut opened) = (0i64, false);
            while i < lines.len() && !(opened && depth <= 0) {
                depth += lines[i].matches('{').count() as i64;
                depth -= lines[i].matches('}').count() as i64;
                opened |= lines[i].contains('{');
                lines[i] = "";
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    lines
}

/// Lines (1-based) of `text` outside its test modules that call one of
/// `builders`.
fn fault_arming_lines(text: &str, builders: &[String]) -> Vec<usize> {
    without_test_modules(text)
        .iter()
        .enumerate()
        .filter(|(_, line)| {
            builders
                .iter()
                .any(|b| line.contains(&format!(".{b}(")) || line.contains(&format!("::{b}(")))
        })
        .map(|(i, _)| i + 1)
        .collect()
}

/// Where the fault types and their builders live.
const FAULT_PLAN: &str = "crates/runtime/src/fault.rs";
const STORE_FAULTS: &str = "crates/store/src/pager.rs";

#[test]
fn only_tests_arm_a_fault() {
    let builders: Vec<String> = builders_of(&read(FAULT_PLAN), "FaultPlan")
        .into_iter()
        .chain(builders_of(&read(STORE_FAULTS), "StoreFaults"))
        .collect();
    assert!(
        builders.contains(&"with_queue_saturation".to_string())
            && builders.contains(&"with_disk_full_after".to_string()),
        "{builders:?}"
    );
    let planted = "fn serve() {\n    let plan = FaultPlan::none().with_queue_saturation();\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() {\n        \
                   FaultPlan::none().with_queue_saturation();\n    }\n}\n";
    assert_eq!(fault_arming_lines(planted, &builders), [2]);

    let bad: Vec<String> = rust_sources()
        .iter()
        .filter(|(path, _)| {
            let test_code = Path::new(path)
                .components()
                .any(|c| matches!(c.as_os_str().to_str(), Some("tests" | "benches")));
            !test_code && path != FAULT_PLAN && path != STORE_FAULTS
        })
        .flat_map(|(path, text)| {
            fault_arming_lines(text, &builders)
                .into_iter()
                .map(move |line| format!("{path}:{line}"))
        })
        .collect();
    assert!(
        bad.is_empty(),
        "non-test code arms a fault outside the tests; production passes \
         `FaultPlan::none()`: {bad:?}"
    );
}
