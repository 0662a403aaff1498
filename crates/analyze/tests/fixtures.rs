//! Planted-violation fixtures: one source snippet per source-rule family,
//! asserting the exact `SA###` id each violation produces.

use gcnt_analyze::hygiene::check_hygiene;
use gcnt_analyze::registry::{rule, RuleId};
use gcnt_analyze::source::SourceFile;

fn codes(path: &str, src: &str) -> Vec<&'static str> {
    check_hygiene(&[SourceFile::parse(path, src)])
        .iter()
        .map(|f| rule(f.rule).code)
        .collect()
}

#[test]
fn atomics_family_seqcst_and_obs_orderings() {
    let seqcst = codes(
        "crates/runtime/src/planted.rs",
        "x.store(1, Ordering::SeqCst);\n",
    );
    assert_eq!(seqcst, vec!["SA301"]);
    let obs_release = codes(
        "crates/obs/src/planted.rs",
        "x.store(1, Ordering::Release);\n",
    );
    assert_eq!(obs_release, vec!["SA302"]);
    let justified = codes(
        "crates/obs/src/planted.rs",
        "// ORDERING: publishes the enable flip\nx.store(1, Ordering::Release);\n",
    );
    assert!(justified.is_empty());
    // An ordering named inside a string or a comment is not a use.
    assert!(codes(
        "crates/runtime/src/planted.rs",
        "log(\"Ordering::SeqCst\"); // Ordering::SeqCst\n"
    )
    .is_empty());
}

#[test]
fn feature_gate_family_flags_ungated_fault_state() {
    let findings = check_hygiene(&[SourceFile::parse(
        "crates/runtime/src/fault.rs",
        "pub struct FaultPlan {\n    ungated: bool,\n}\n",
    )]);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, RuleId::FaultInjectUngated);

    let gated = "pub struct FaultPlan {\n\
                 #[cfg(feature = \"fault-inject\")]\n\
                 gated: bool,\n\
                 }\n";
    assert!(codes("crates/runtime/src/fault.rs", gated).is_empty());
}
