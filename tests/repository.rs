//! What neither rustc nor clippy can see, read as text from the checked-out
//! tree: atomic orderings say why, the docs cite only declared benchmark
//! names, the README rule table is the lint registry, `CHANGES.md`
//! counts its entries, only tests arm a fault, every public function has a
//! caller outside the tests or a stated reason not to, every doc link
//! resolves, and the docs and the non-test code stay within their line
//! budgets. Each check is a
//! small function over text, and each test first plants a violation to
//! prove the check still bites.

use std::collections::{BTreeSet, HashMap};
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

/// Where non-test code lives: a use there keeps a public function alive.
const CODE_ROOTS: [&str; 4] = ["crates/", "src/", "examples/", "benchmark/src/"];

/// The public functions whose only callers are tests, each with why it
/// stays. A function that loses its last non-test caller must be deleted
/// or listed here; a listed one that gains a caller must leave the list.
const TEST_ONLY_API: [(&str, &str); 34] = [
    (
        "with_nan_grads",
        "FaultPlan builder: how a test arms a fault",
    ),
    (
        "with_worker_kill",
        "FaultPlan builder: how a test arms a fault",
    ),
    (
        "with_latency_multiplier",
        "FaultPlan builder: how a test arms a fault",
    ),
    (
        "with_queue_saturation",
        "FaultPlan builder: how a test arms a fault",
    ),
    (
        "with_cache_poison",
        "FaultPlan builder: how a test arms a fault",
    ),
    (
        "with_kill_after_record",
        "FaultPlan builder: how a test arms a fault",
    ),
    (
        "with_store_disk_full_after",
        "FaultPlan builder: how a test arms a fault",
    ),
    (
        "with_kill_mid_compaction",
        "FaultPlan builder: how a test arms a fault",
    ),
    (
        "with_net_disconnect_after_frames",
        "FaultPlan builder: how a test arms a fault",
    ),
    (
        "with_net_slow_loris",
        "FaultPlan builder: how a test arms a fault",
    ),
    (
        "with_net_corrupt_frame_checksum",
        "FaultPlan builder: how a test arms a fault",
    ),
    (
        "with_net_connect_refused",
        "FaultPlan builder: how a test arms a fault",
    ),
    ("label_by_scoap", "the pure-SCOAP labeler PAPER.md promises"),
    (
        "exact_detection",
        "the exact fault-simulation reference of the labeler tests",
    ),
    (
        "from_rows",
        "Matrix constructor for doctests and integration tests",
    ),
    (
        "matmul",
        "the plain GEMM the kernel properties hold the fused products to",
    ),
    ("softmax_rows", "the row softmax `softmax_col` is held to"),
    (
        "with_faults",
        "ServeCore and PageStore seam: how a test arms a fault",
    ),
    (
        "into_string",
        "how the line-grammar test reads a report line",
    ),
    (
        "build",
        "NetlistBuilder: how a test hand-builds a netlist that validates",
    ),
    ("fired", "LintReport query the rule tests assert with"),
    (
        "scrub",
        "PageStore check: how the kill and disk-full tests assert a clean store",
    ),
    (
        "uniform",
        "partition layer, kept until ROADMAP item 1(b) deletes it",
    ),
    (
        "from_csr",
        "partition layer, kept until ROADMAP item 1(b) deletes it",
    ),
    (
        "halo_total",
        "partition layer, kept until ROADMAP item 1(b) deletes it",
    ),
    (
        "halo_cols",
        "partition layer, kept until ROADMAP item 1(b) deletes it",
    ),
    (
        "halo_starts",
        "partition layer, kept until ROADMAP item 1(b) deletes it",
    ),
    (
        "nnz_starts",
        "partition layer, kept until ROADMAP item 1(b) deletes it",
    ),
    (
        "cc0",
        "per-node SCOAP query the controllability tests assert with",
    ),
    (
        "cc1",
        "per-node SCOAP query the controllability tests assert with",
    ),
    (
        "admitted",
        "ServeCore query: how the admission tests count what ran",
    ),
    (
        "design_fingerprint",
        "the one-shot segment key `ServeCore::segment_design` is held to",
    ),
    (
        "findings",
        "LintReport query: how a rule test counts one rule's findings",
    ),
    (
        "shards",
        "net Client query: how the e2e test reads the handshake",
    ),
];

/// Whether `c` can be part of an identifier.
fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `text` with its comments and the contents of its string and char
/// literals blanked, newlines kept, so that a word counts only where it is
/// code: `op: "matmul"` or `expect("filled")` names nothing.
fn code_only(text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < chars.len() {
        let end = literal_end(&chars, i);
        if end == i {
            out.push(chars[i]);
            i += 1;
        } else {
            let blanked = chars[i..end]
                .iter()
                .map(|&c| if c == '\n' { c } else { ' ' });
            out.extend(blanked);
            i = end;
        }
    }
    out
}

/// Where the comment or literal that starts at `chars[i]` ends, or `i` if
/// none starts there. A `'` opens a char literal only if it closes one
/// char or one escape later, so a lifetime stays code.
fn literal_end(chars: &[char], i: usize) -> usize {
    let at = |k: usize| chars.get(i + k).copied().unwrap_or('\0');
    let past = |from: usize, close: &[char]| {
        (from..chars.len())
            .find(|&j| chars[j..].starts_with(close))
            .map_or(chars.len(), |j| j + close.len())
    };
    let hashes = (1..).take_while(|&k| at(k) == '#').count();
    let raw = at(0) == 'r' && at(hashes + 1) == '"' && (i == 0 || !is_word(chars[i - 1]));
    match (at(0), at(1), at(2)) {
        ('/', '/', _) => past(i, &['\n']),
        ('/', '*', _) => past(i + 2, &['*', '/']),
        _ if raw => {
            let close: Vec<char> = std::iter::once('"').chain(vec!['#'; hashes]).collect();
            past(i + hashes + 2, &close)
        }
        ('"', _, _) => {
            let mut j = i + 1;
            while j < chars.len() && chars[j] != '"' {
                j += if chars[j] == '\\' { 2 } else { 1 };
            }
            (j + 1).min(chars.len())
        }
        ('\'', '\\', _) => past(i + 3, &['\'']),
        ('\'', _, '\'') => i + 3,
        _ => i,
    }
}

/// The code of `text` outside its test modules, comments and literals, if
/// `path` holds non-test code at all (a `tests/` or `benches/` directory
/// does not).
fn non_test_code(path: &str, text: &str) -> Option<String> {
    if in_test_dir(path) || !CODE_ROOTS.iter().any(|root| path.starts_with(root)) {
        return None;
    }
    Some(without_test_modules(&code_only(text)).join("\n"))
}

fn in_test_dir(path: &str) -> bool {
    path.split('/').any(|c| c == "tests" || c == "benches")
}

/// Whether `path` lies under `src/` or a `crates/*/src`, the code that
/// ships (its `tests/` and `benches/` directories aside).
fn product_source(path: &str) -> bool {
    let mut parts = path.split('/');
    let under_src = path.starts_with("src/")
        || parts.next() == Some("crates") && parts.next().is_some() && parts.next() == Some("src");
    under_src && !in_test_dir(path)
}

/// The names the code `text` uses: each identifier that is called
/// (`name(`, `name::<`) or named by path (`::name`), unless it is the name
/// of a `fn` being defined. A word that is only a field, a variable or a
/// definition is no use.
fn called_names(text: &str) -> BTreeSet<&str> {
    let mut used = BTreeSet::new();
    let mut at = 0;
    while let Some(start) = text[at..].find(is_word).map(|i| at + i) {
        at = text[start..]
            .find(|c: char| !is_word(c))
            .map_or(text.len(), |i| start + i);
        let (before, word, after) = (&text[..start], &text[start..at], &text[at..]);
        let spaced = before.trim_end();
        let defined = spaced.len() < before.len()
            && spaced
                .strip_suffix("fn")
                .is_some_and(|pre| !pre.ends_with(is_word));
        let called = after.starts_with('(') || after.starts_with("::<");
        if !defined && (called || before.ends_with("::")) {
            used.insert(word);
        }
    }
    used
}

/// The `pub fn`s defined under `crates/*/src` or `src/` that no non-test
/// code of `files` uses in the sense of [`called_names`]. Names, not
/// paths: a dead method that shares its name with a live one is missed.
fn dead_pub_fns(files: &[(String, String)]) -> BTreeSet<String> {
    let code: Vec<(&str, String)> = files
        .iter()
        .filter_map(|(path, text)| Some((path.as_str(), non_test_code(path, text)?)))
        .collect();
    let used: BTreeSet<&str> = code
        .iter()
        .flat_map(|(_, text)| called_names(text))
        .collect();
    code.iter()
        .filter(|(path, _)| product_source(path))
        .flat_map(|(_, text)| text.lines())
        .filter_map(|line| line.trim_start().strip_prefix("pub fn "))
        .map(|rest| rest.chars().take_while(|&c| is_word(c)).collect::<String>())
        .filter(|name| !used.contains(name.as_str()))
        .collect()
}

#[test]
fn every_public_function_has_a_caller_or_a_reason() {
    // `dead` is called only by tests; `quoted` only inside a string;
    // `twin` is two dead methods of one name; `helper` is dead under `src/`;
    // `dir` is only a field and a variable besides its definition. `width`
    // is used only as a path and `generic` only through a turbofish.
    let planted = [
        (
            "crates/a/src/lib.rs",
            "pub fn used() {}\npub fn dead() {}\npub fn quoted() {}\n\
             impl A {\n    pub fn twin() {}\n}\nimpl B {\n    pub fn twin() {}\n}\n\
             pub struct S {\n    dir: u8,\n}\nimpl S {\n    pub fn dir(&self) -> u8 {\n        \
             let dir = self.dir;\n        dir\n    }\n    pub fn width(&self) -> u8 {\n        \
             1\n    }\n}\npub fn generic<T>(t: T) -> T {\n    t\n}\n\
             #[cfg(test)]\nmod tests {\n    fn t() {\n        super::dead();\n    }\n}\n",
        ),
        (
            "src/main.rs",
            "pub fn helper() {}\nfn main() {\n    let q = '\"';\n    a::used(); // a::dead()\n    \
             q.expect(\"quoted\");\n    let _ = [S { dir: 1 }].iter().map(S::width);\n    \
             generic::<u8>(1);\n}\n",
        ),
        ("tests/it.rs", "fn t() {\n    a::dead();\n}\n"),
    ]
    .map(|(path, text)| (path.to_string(), text.to_string()));
    let expected = ["dead", "dir", "helper", "quoted", "twin"].map(String::from);
    assert_eq!(dead_pub_fns(&planted), BTreeSet::from(expected));

    let dead = dead_pub_fns(&rust_sources());
    let listed: BTreeSet<String> = TEST_ONLY_API
        .iter()
        .map(|(name, _)| name.to_string())
        .collect();
    assert_eq!(listed.len(), TEST_ONLY_API.len(), "a name is listed twice");
    let unlisted: Vec<&String> = dead.difference(&listed).collect();
    assert!(
        unlisted.is_empty(),
        "public functions with only test callers: delete them, or list them with a \
         reason in TEST_ONLY_API: {unlisted:?}"
    );
    let stale: Vec<&String> = listed.difference(&dead).collect();
    assert!(
        stale.is_empty(),
        "listed in TEST_ONLY_API but called outside the tests (or gone): {stale:?}"
    );
}

/// Each doc's line budget, set at its size when it was last cut, and the
/// budget of the four together. A doc that grows past its budget fails;
/// raising one is a decision made in the change that needs it, and a cut
/// lowers it.
const LINE_BUDGETS: [(&str, usize); 4] = [
    ("README.md", 351),
    ("DESIGN.md", 400),
    ("EXPERIMENTS.md", 388),
    (".claude/skills/verify/SKILL.md", 197),
];
const DOCS_TOTAL_BUDGET: usize = 1_336;

/// `doc: lines > budget` for each `(doc, text, budget)` over its budget,
/// then `total: lines > total` if the docs together are over `total`.
fn over_budget<'a>(
    docs: impl IntoIterator<Item = (&'a str, String, usize)>,
    total: usize,
) -> Vec<String> {
    let mut sum = 0;
    let mut over: Vec<String> = docs
        .into_iter()
        .filter_map(|(doc, text, budget)| {
            let lines = text.lines().count();
            sum += lines;
            (lines > budget).then(|| format!("{doc}: {lines} lines > {budget}"))
        })
        .collect();
    if sum > total {
        over.push(format!("total: {sum} lines > {total}"));
    }
    over
}

#[test]
fn every_doc_keeps_to_its_line_budget() {
    let planted = || {
        [
            ("a.md", "x\ny\n".to_string(), 2),
            ("b.md", "x\ny\nz\n".to_string(), 2),
        ]
    };
    assert_eq!(over_budget(planted(), 5), ["b.md: 3 lines > 2"]);
    assert_eq!(
        over_budget(planted(), 4),
        ["b.md: 3 lines > 2", "total: 5 lines > 4"]
    );

    let docs = LINE_BUDGETS.map(|(doc, budget)| (doc, read(doc), budget));
    let bad = over_budget(docs, DOCS_TOTAL_BUDGET);
    assert!(bad.is_empty(), "over the line budget: {bad:?}");
}

/// The anchors of a markdown text's headings, by GitHub's rule: lowercase,
/// every character but letters, digits, spaces, `-` and `_` dropped, each
/// space a `-`, and a repeated anchor suffixed `-1`, `-2`, …; fenced code
/// holds no heading.
fn heading_anchors(markdown: &str) -> BTreeSet<String> {
    let (mut anchors, mut seen, mut fenced) = (BTreeSet::new(), HashMap::new(), false);
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        }
        let Some(heading) = line.strip_prefix('#').filter(|_| !fenced) else {
            continue;
        };
        let slug: String = heading
            .trim_start_matches('#')
            .trim()
            .to_lowercase()
            .chars()
            .filter(|&c| is_word(c) || c == ' ' || c == '-')
            .map(|c| if c == ' ' { '-' } else { c })
            .collect();
        let repeats: &mut usize = seen.entry(slug.clone()).or_default();
        anchors.insert(match *repeats {
            0 => slug,
            n => format!("{slug}-{n}"),
        });
        *repeats += 1;
    }
    anchors
}

/// `file` joined onto the directory of `doc`, with `..` resolved.
fn beside(doc: &str, file: &str) -> String {
    let mut parts: Vec<&str> = doc.split('/').collect();
    parts.pop();
    for part in file.split('/') {
        match part {
            ".." => {
                parts.pop();
            }
            "." | "" => {}
            part => parts.push(part),
        }
    }
    parts.join("/")
}

/// Why each `](path)`, `](path#anchor)` or `](#anchor)` link of `doc`
/// (text `text`) does not resolve. `file` gives a repo-relative file's
/// text, `""` for a directory, or `None` if there is no such path.
fn broken_links(doc: &str, text: &str, file: &dyn Fn(&str) -> Option<String>) -> Vec<String> {
    text.split("](")
        .skip(1)
        .filter_map(|rest| rest.split(')').next())
        .filter(|target| !target.contains("://"))
        .filter_map(|target| {
            let (path, anchor) = target.split_once('#').unwrap_or((target, ""));
            let target_text = if path.is_empty() {
                text.to_string()
            } else {
                match file(&beside(doc, path)) {
                    Some(found) => found,
                    None => return Some(format!("{doc}: ({target}): no such file")),
                }
            };
            (!anchor.is_empty() && !heading_anchors(&target_text).contains(anchor))
                .then(|| format!("{doc}: ({target}): no such heading"))
        })
        .collect()
}

/// The citations of a doc section in `text` — a doc's name, `#` and a
/// heading's anchor, with nothing between — as `(doc, anchor)`.
fn cited_sections(text: &str) -> Vec<(&'static str, String)> {
    LINE_BUDGETS
        .iter()
        .map(|&(doc, _)| doc)
        .flat_map(|doc| {
            text.match_indices(&format!("{doc}#"))
                .map(|(at, cite)| {
                    let anchor = text[at + cite.len()..]
                        .chars()
                        .take_while(|&c| is_word(c) || c == '-')
                        .collect();
                    (doc, anchor)
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn doc_links_resolve() {
    let planted = "# Top — the `x` (y)\n## Top: the x y\n```\n# not a heading\n```\n\
                   [a](#top--the-x-y) [b](#top-the-x-y) [c](sub/b.md#in-b) [d](https://e.f)\n\
                   [bad path](sub/c.md) [bad anchor](sub/b.md#not-a-heading) [e](#not-a-heading)\n";
    let files = |path: &str| match path {
        "docs/sub/b.md" => Some("### In B\n".to_string()),
        "docs/sub" => Some(String::new()),
        _ => None,
    };
    assert_eq!(
        broken_links("docs/a.md", planted, &files),
        [
            "docs/a.md: (sub/c.md): no such file",
            "docs/a.md: (sub/b.md#not-a-heading): no such heading",
            "docs/a.md: (#not-a-heading): no such heading",
        ]
    );
    let cite = concat!("see DESIGN", ".md#one-layer-step, ", "README", ".md#x.");
    assert_eq!(
        cited_sections(cite),
        [
            ("README.md", "x".to_string()),
            ("DESIGN.md", "one-layer-step".to_string())
        ]
    );

    let file = |path: &str| {
        let at = root().join(path);
        if at.is_dir() {
            Some(String::new())
        } else {
            fs::read_to_string(at).ok()
        }
    };
    let mut bad: Vec<String> = LINE_BUDGETS
        .iter()
        .flat_map(|&(doc, _)| broken_links(doc, &read(doc), &file))
        .collect();
    for (path, text) in rust_sources() {
        for (doc, anchor) in cited_sections(&text) {
            if !heading_anchors(&read(doc)).contains(&anchor) {
                bad.push(format!("{path}: {doc}#{anchor}: no such heading"));
            }
        }
    }
    assert!(bad.is_empty(), "links that do not resolve: {bad:?}");
}

/// The lines of non-test code under `crates/*/src` and `src/`, set at
/// their count when the budget came in. Code that grows past it fails;
/// raising it is a decision made, and said why, in the change that needs
/// it, and a cut lowers it.
const NON_TEST_CODE_BUDGET: usize = 13_948;

/// Non-blank lines of `text` outside its test modules that do not start
/// with `//`.
fn code_lines(text: &str) -> usize {
    without_test_modules(text)
        .iter()
        .map(|line| line.trim())
        .filter(|line| !line.is_empty() && !line.starts_with("//"))
        .count()
}

#[test]
fn non_test_code_keeps_to_its_budget() {
    let planted =
        "/// Doc.\nfn a() {}\n\n    // note\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
    assert_eq!(code_lines(planted), 1);
    assert!(product_source("crates/a/src/lib.rs") && product_source("src/bin/gcnt.rs"));
    assert!(!product_source("crates/a/tests/it.rs") && !product_source("benchmark/src/main.rs"));

    let lines: usize = rust_sources()
        .iter()
        .filter(|(path, _)| product_source(path))
        .map(|(_, text)| code_lines(text))
        .sum();
    assert!(
        lines <= NON_TEST_CODE_BUDGET,
        "{lines} lines of non-test code > the budget of {NON_TEST_CODE_BUDGET}"
    );
}
