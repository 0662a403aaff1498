//! Deterministic repo walker.
//!
//! Collects the `.rs` files under a root in sorted, repo-relative order
//! (so reports are stable across machines), skipping
//! build output, VCS metadata, and experiment results.

use std::fs;
use std::path::Path;

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &[".git", "target", "results", "node_modules", ".github"];

/// Returns `(repo_relative_path, contents)` for every `.rs` file under
/// `root`, sorted by path. Unreadable entries are skipped rather than
/// fatal — an analyzer must degrade, not crash, on a weird tree.
pub fn rust_sources(root: &Path) -> Vec<(String, String)> {
    let mut paths = Vec::new();
    collect(root, root, &mut paths);
    paths.sort();
    paths
        .into_iter()
        .filter_map(|rel| {
            let text = fs::read_to_string(root.join(&rel)).ok()?;
            Some((rel, text))
        })
        .collect()
}

fn collect(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                collect(root, &path, out);
            }
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
}

/// Reads one repo-relative text file, `None` if absent or unreadable.
pub fn read_rel(root: &Path, rel: &str) -> Option<String> {
    fs::read_to_string(root.join(rel)).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn repo_root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .expect("workspace root exists")
    }

    #[test]
    fn walk_is_sorted_and_skips_target() {
        let files = rust_sources(&repo_root());
        assert!(files.len() > 10);
        let paths: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
        let mut sorted = paths.clone();
        sorted.sort();
        assert_eq!(paths, sorted);
        assert!(paths.iter().all(|p| !p.starts_with("target/")));
        assert!(paths.contains(&"crates/analyze/src/walk.rs"));
    }
}
