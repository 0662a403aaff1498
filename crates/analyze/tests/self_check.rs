//! The analyzer must pass on the repository that ships it.

use std::path::PathBuf;

use gcnt_analyze::analyze;

#[test]
fn repo_tree_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let report = analyze(&root);
    assert!(
        report.is_clean(),
        "the committed tree must analyze clean:\n{report}"
    );
    // The walk actually covered the workspace, not an empty dir.
    assert!(report.files_scanned > 100, "{} files", report.files_scanned);
}
