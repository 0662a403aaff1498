//! The per-file source model the rules run against.
//!
//! A [`SourceFile`] is the scrubbed lines of one `.rs` file plus two
//! line masks the rules consult:
//!
//! * `test_lines` — lines that belong to test context: anything in a
//!   `tests/`, `benches/` or `examples/` directory, plus `#[cfg(test)]`
//!   and `#[test]` item spans. The obs-ordering and fault-gating rules
//!   skip test code.
//! * `gated_lines` — item spans under a
//!   `#[cfg(feature = "fault-inject")]` (or its `not(...)` complement):
//!   the feature-gate rule requires fault-injection state to live here.
//!
//! Spans are found by brace tracking over the scrubbed code (so braces
//! inside strings and comments cannot derail it): from an attribute
//! line, skip any further attributes/blank lines, then mark through the
//! end of the next item — the close of its first top-level `{...}`
//! block, or the first `,`/`;` at nesting depth zero for field- and
//! statement-shaped items.

use crate::lexer::{scrub, ScrubbedLine};

/// One analyzed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Repo-relative path with `/` separators, e.g.
    /// `crates/tensor/src/csr.rs`.
    pub path: String,
    /// Scrubbed lines (see [`crate::lexer`]).
    pub lines: Vec<ScrubbedLine>,
    /// Mask: line belongs to test context.
    pub test_lines: Vec<bool>,
    /// Mask: line is under a `fault-inject` feature gate.
    pub gated_lines: Vec<bool>,
}

impl SourceFile {
    /// Scrubs `text` and computes the line masks for `path`.
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let lines = scrub(text);
        let n = lines.len();
        let all_test = is_test_path(path);
        let mut file = SourceFile {
            path: path.to_string(),
            test_lines: vec![all_test; n],
            gated_lines: vec![false; n],
            lines,
        };
        for i in 0..n {
            let code = file.lines[i].code.trim().to_string();
            if code.contains("#[cfg(test)]") || code == "#[test]" || code.contains("#[cfg(test)] ")
            {
                file.mark_item_span(i, Mask::Test);
            }
            // The feature name is a string literal, blanked in `code` —
            // match the attribute shape and the captured string.
            if (code.contains("#[cfg(feature") || code.contains("#[cfg(not(feature"))
                && file.lines[i].strings.iter().any(|s| s == "fault-inject")
            {
                file.mark_item_span(i, Mask::Gated);
            }
        }
        file
    }

    /// Whether any comment on lines `i-back ..= i` contains `marker` —
    /// the justification-comment check (`ORDERING:`).
    pub fn justified(&self, i: usize, back: usize, marker: &str) -> bool {
        let lo = i.saturating_sub(back);
        (lo..=i).any(|j| self.lines[j].comment.contains(marker))
    }

    /// Marks the item following the attribute at line `attr` (inclusive
    /// of the attribute itself) in the given mask.
    fn mark_item_span(&mut self, attr: usize, mask: Mask) {
        let end = self.item_end(attr);
        for i in attr..=end.min(self.lines.len() - 1) {
            match mask {
                Mask::Test => self.test_lines[i] = true,
                Mask::Gated => self.gated_lines[i] = true,
            }
        }
    }

    /// Finds the last line of the item that starts at (or after) line
    /// `attr`: tracks `{}`/`()`/`[]` depth through the scrubbed code and
    /// ends at the close of the first brace block, or at a top-level
    /// `,`/`;` reached before any brace opens.
    fn item_end(&self, attr: usize) -> usize {
        let mut depth: i64 = 0; // (), []
        let mut braces: i64 = 0; // {}
        let mut saw_brace = false;
        let mut started = false;
        for (i, line) in self.lines.iter().enumerate().skip(attr) {
            // The item header begins on the first line past the
            // attribute whose code is not itself another attribute.
            // (An item on the attribute's own line is caught by the
            // brace tracking below, which needs no `started`.)
            if i > attr && !started {
                let t = line.code.trim();
                if !t.is_empty() && !t.starts_with('#') {
                    started = true;
                }
            }
            for c in line.code.chars() {
                match c {
                    '(' | '[' => depth += 1,
                    ')' | ']' => depth -= 1,
                    '{' => {
                        braces += 1;
                        saw_brace = true;
                    }
                    '}' => {
                        braces -= 1;
                        if saw_brace && braces == 0 {
                            return i;
                        }
                    }
                    ',' | ';' if started && !saw_brace && depth == 0 => return i,
                    _ => {}
                }
            }
        }
        self.lines.len().saturating_sub(1)
    }
}

enum Mask {
    Test,
    Gated,
}

/// Whether every line of a file at this path is test context.
pub fn is_test_path(path: &str) -> bool {
    let p = path.trim_start_matches("./");
    p.starts_with("tests/")
        || p.starts_with("benches/")
        || p.starts_with("examples/")
        || p.contains("/tests/")
        || p.contains("/benches/")
        || p.contains("/examples/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_span_is_masked() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn inner() { y.unwrap(); }\n\
                   }\n\
                   fn also_live() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.test_lines[0]);
        assert!(f.test_lines[1] && f.test_lines[2] && f.test_lines[3] && f.test_lines[4]);
        assert!(!f.test_lines[5]);
    }

    #[test]
    fn test_attribute_masks_one_fn() {
        let src = "#[test]\nfn t() {\n  a();\n}\nfn live() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.test_lines[0] && f.test_lines[1] && f.test_lines[2] && f.test_lines[3]);
        assert!(!f.test_lines[4]);
    }

    #[test]
    fn tests_directory_is_all_test() {
        let f = SourceFile::parse("crates/x/tests/integration.rs", "fn t() { a.unwrap(); }\n");
        assert!(f.test_lines.iter().all(|&t| t));
    }

    #[test]
    fn fault_gate_marks_fields_and_fns() {
        let src = "pub struct FaultPlan {\n\
                       #[cfg(feature = \"fault-inject\")]\n\
                       nan_grad_epoch: Option<usize>,\n\
                       ungated: bool,\n\
                   }\n\
                   #[cfg(feature = \"fault-inject\")]\n\
                   pub fn with_nan_grads(mut self) -> Self {\n\
                       self\n\
                   }\n";
        let f = SourceFile::parse("crates/runtime/src/fault.rs", src);
        assert!(f.gated_lines[1] && f.gated_lines[2]);
        assert!(!f.gated_lines[3]);
        assert!(f.gated_lines[5] && f.gated_lines[6] && f.gated_lines[7] && f.gated_lines[8]);
    }

    #[test]
    fn braces_in_strings_do_not_derail_spans() {
        let src = "#[cfg(test)]\nfn t() {\n  let s = \"}\";\n  b();\n}\nfn live() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.test_lines[3] && f.test_lines[4]);
        assert!(!f.test_lines[5]);
    }

    #[test]
    fn justification_window_looks_back() {
        let src = "// ORDERING: fine here\n\n\nx.load(Ordering::SeqCst);\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.justified(3, 3, "ORDERING:"));
        assert!(!f.justified(3, 2, "ORDERING:"));
    }
}
