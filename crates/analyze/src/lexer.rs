//! A lightweight, line-oriented Rust scrubber.
//!
//! The analyzer's rules are substring checks over *code*, so the one
//! piece of real parsing needed is separating code from the places where
//! rule patterns may legitimately appear as data: comments, string
//! literals (plain, byte, raw), and char literals. [`scrub`] walks a
//! source text once and produces, per line:
//!
//! * `code` — the line with comments removed and literal *contents*
//!   blanked to spaces (the delimiting quotes stay, so `"x"[0]` still
//!   reads as an expression shape);
//! * `comment` — the concatenated text of `//`, `///`, `//!` and
//!   `/* ... */` comments touching the line (where justification markers
//!   like `ORDERING:` live);
//! * `strings` — the contents of string literals that *close* on the
//!   line (used by the artifact rules to read names out of macros).
//!
//! This is deliberately not a full lexer — no token stream, no `syn` —
//! because the workspace builds offline and the rules only need
//! line-level fidelity. The subtle cases it does get right: nested block
//! comments, raw strings with `#` fences, escaped quotes, and the
//! char-literal vs. lifetime ambiguity (`'a'` vs. `'a`).

/// One source line, separated into code, comment text, and string
/// contents.
#[derive(Debug, Default, Clone)]
pub struct ScrubbedLine {
    /// The line's code with comments stripped and literal contents
    /// blanked.
    pub code: String,
    /// Comment text on (or spanning) this line.
    pub comment: String,
    /// Contents of string literals that close on this line.
    pub strings: Vec<String>,
}

enum State {
    Code,
    LineComment,
    /// Nested block comment with its current depth.
    Block(u32),
    /// Inside `"..."` or `b"..."`.
    Str,
    /// Inside a raw string with this many `#` fence characters.
    RawStr(u32),
}

/// Splits `text` into scrubbed lines. Never fails: unterminated literals
/// or comments simply run to end of input, which is the right behaviour
/// for an analyzer that must not crash on the code it critiques.
pub fn scrub(text: &str) -> Vec<ScrubbedLine> {
    let chars: Vec<char> = text.chars().collect();
    let mut lines = vec![ScrubbedLine::default()];
    let mut state = State::Code;
    let mut literal = String::new();
    let mut i = 0;

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            match state {
                State::LineComment => state = State::Code,
                State::Str | State::RawStr(_) => literal.push('\n'),
                _ => {}
            }
            lines.push(ScrubbedLine::default());
            i += 1;
            continue;
        }
        let line = lines.last_mut().expect("lines starts non-empty");
        match state {
            State::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    state = State::LineComment;
                    i += 2;
                    continue;
                }
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::Block(1);
                    i += 2;
                    continue;
                }
                // Raw (and raw byte) strings: r"..", r#".."#, br".."
                if let Some((fence, skip)) = raw_string_start(&chars, i) {
                    for _ in 0..skip {
                        line.code.push(' ');
                    }
                    line.code.push('"');
                    literal.clear();
                    state = State::RawStr(fence);
                    i += skip + 1;
                    continue;
                }
                if c == '"'
                    || (c == 'b' && chars.get(i + 1) == Some(&'"') && !ident_before(&chars, i))
                {
                    if c == 'b' {
                        line.code.push(' ');
                        i += 1;
                    }
                    line.code.push('"');
                    literal.clear();
                    state = State::Str;
                    i += 1;
                    continue;
                }
                if c == '\'' {
                    if let Some(end) = char_literal_end(&chars, i) {
                        // Blank the whole literal, keeping the quotes.
                        line.code.push('\'');
                        for _ in i + 1..end {
                            line.code.push(' ');
                        }
                        line.code.push('\'');
                        i = end + 1;
                        continue;
                    }
                    // A lifetime: pass through untouched.
                    line.code.push('\'');
                    i += 1;
                    continue;
                }
                line.code.push(c);
                i += 1;
            }
            State::LineComment => {
                line.comment.push(c);
                i += 1;
            }
            State::Block(depth) => {
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::Block(depth + 1);
                    i += 2;
                } else if c == '*' && chars.get(i + 1) == Some(&'/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::Block(depth - 1)
                    };
                    i += 2;
                } else {
                    line.comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    literal.push(c);
                    if let Some(&next) = chars.get(i + 1) {
                        if next != '\n' {
                            literal.push(next);
                            line.code.push(' ');
                        }
                    }
                    line.code.push(' ');
                    i += 2;
                } else if c == '"' {
                    line.code.push('"');
                    line.strings.push(std::mem::take(&mut literal));
                    state = State::Code;
                    i += 1;
                } else {
                    literal.push(c);
                    line.code.push(' ');
                    i += 1;
                }
            }
            State::RawStr(fence) => {
                if c == '"' && closes_raw(&chars, i, fence) {
                    line.code.push('"');
                    for _ in 0..fence {
                        line.code.push(' ');
                    }
                    line.strings.push(std::mem::take(&mut literal));
                    state = State::Code;
                    i += 1 + fence as usize;
                } else {
                    literal.push(c);
                    line.code.push(' ');
                    i += 1;
                }
            }
        }
    }
    lines
}

/// Whether the char before position `i` continues an identifier (so an
/// `r` or `b` there is part of a name, not a literal prefix).
fn ident_before(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// Detects `r`/`br` + `#`-fence + `"` at `i`; returns the fence size and
/// how many chars precede the opening quote.
fn raw_string_start(chars: &[char], i: usize) -> Option<(u32, usize)> {
    if ident_before(chars, i) {
        return None;
    }
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut fence = 0u32;
    while chars.get(j) == Some(&'#') {
        fence += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some((fence, j - i))
    } else {
        None
    }
}

/// Whether the `"` at `i` is followed by `fence` `#` characters.
fn closes_raw(chars: &[char], i: usize, fence: u32) -> bool {
    (1..=fence as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// If position `i` (a `'`) starts a char literal, returns the index of
/// its closing quote; `None` means it is a lifetime.
fn char_literal_end(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1) {
        Some('\\') => {
            // Escaped char: scan to the closing quote.
            let mut j = i + 2;
            while j < chars.len() {
                match chars[j] {
                    '\'' => return Some(j),
                    '\n' => return None,
                    _ => j += 1,
                }
            }
            None
        }
        Some(&c) if c != '\'' && chars.get(i + 2) == Some(&'\'') => Some(i + 2),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_stripped_and_captured() {
        let lines = scrub("let x = 1; // trailing SAFETY: note\n/* block */ let y;");
        assert_eq!(lines[0].code.trim_end(), "let x = 1;");
        assert!(lines[0].comment.contains("SAFETY:"));
        assert_eq!(lines[1].code.trim(), "let y;");
        assert!(lines[1].comment.contains("block"));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let lines = scrub("a /* outer /* inner */ still */ b");
        assert_eq!(lines[0].code.replace(' ', ""), "ab");
    }

    #[test]
    fn string_contents_are_blanked_but_captured() {
        let lines = scrub(r#"call(".unwrap()");"#);
        assert!(!lines[0].code.contains("unwrap"));
        assert_eq!(lines[0].strings, vec![".unwrap()".to_string()]);
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let lines = scrub(r#"let s = "a\"b.unwrap()"; x();"#);
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].code.contains("x();"));
        assert_eq!(lines[0].strings, vec!["a\\\"b.unwrap()".to_string()]);
    }

    #[test]
    fn raw_strings_with_fences() {
        let lines = scrub("let s = r#\"panic!(\"inner\")\"#; y();");
        assert!(!lines[0].code.contains("panic"));
        assert!(lines[0].code.contains("y();"));
        assert_eq!(lines[0].strings, vec!["panic!(\"inner\")".to_string()]);
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let lines = scrub("let c = '\"'; let s: &'static str = f::<'a>(); let n = '\\n';");
        // The quote char literal must not open a string state.
        assert!(lines[0].code.contains("&'static str"));
        assert!(lines[0].code.contains("<'a>"));
    }

    #[test]
    fn multiline_strings_span_lines() {
        let lines = scrub("let s = \"first\nsecond.unwrap()\";\nlet t = 1;");
        assert!(!lines[1].code.contains("unwrap"));
        assert_eq!(lines[1].strings, vec!["first\nsecond.unwrap()".to_string()]);
        assert_eq!(lines[2].code, "let t = 1;");
    }

    #[test]
    fn byte_strings_are_blanked() {
        let lines = scrub(r#"let b = b"panic!("; z();"#);
        assert!(!lines[0].code.contains("panic"));
        assert!(lines[0].code.contains("z();"));
    }

    #[test]
    fn line_comment_ends_at_newline() {
        let lines = scrub("// SAFETY: only line one\nlet x = 1;");
        assert!(lines[0].comment.contains("SAFETY:"));
        assert_eq!(lines[1].code, "let x = 1;");
        assert!(lines[1].comment.is_empty());
    }
}
