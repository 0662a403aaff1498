//! Testability reporting: the `#OPs / #PAs / Coverage` triple of Table 3.

use serde::{Deserialize, Serialize};

use gcnt_netlist::Netlist;

use crate::atpg::{run_random_atpg_on, AtpgConfig};
use crate::fault::collapsed_faults;

/// Testability results of one flow on one design (one cell of Table 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestabilityReport {
    /// Design name.
    pub design: String,
    /// Observation points inserted.
    pub ops: usize,
    /// Test patterns required.
    pub patterns: usize,
    /// Stuck-at fault coverage in `[0, 1]`.
    pub coverage: f64,
}

/// Runs ATPG on a modified design against the *original* design's fault
/// list (so both TPI flows are graded identically) and packages the
/// Table 3 metrics.
///
/// # Panics
///
/// Panics if `modified` has fewer outputs than `original` (it must be the
/// same design with observation points added).
pub fn evaluate_insertion(
    original: &Netlist,
    modified: &Netlist,
    atpg_cfg: &AtpgConfig,
) -> TestabilityReport {
    let before = original.primary_outputs().len();
    let after = modified.primary_outputs().len();
    assert!(
        after >= before && modified.node_count() >= original.node_count(),
        "modified design must extend the original"
    );
    let faults = collapsed_faults(original);
    let atpg = run_random_atpg_on(modified, &faults, atpg_cfg);
    TestabilityReport {
        design: original.name().to_string(),
        ops: after - before,
        patterns: atpg.patterns_kept,
        coverage: atpg.coverage(),
    }
}

/// One row of Table 3: the same design through the baseline tool and
/// through the GCN flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonRow {
    /// Baseline (testability-analysis tool) results.
    pub baseline: TestabilityReport,
    /// GCN-flow results.
    pub gcn: TestabilityReport,
}

impl ComparisonRow {
    /// `gcn.ops / baseline.ops` (the paper reports 0.89 on average).
    pub fn ops_ratio(&self) -> f64 {
        if self.baseline.ops == 0 {
            return if self.gcn.ops == 0 {
                1.0
            } else {
                f64::INFINITY
            };
        }
        self.gcn.ops as f64 / self.baseline.ops as f64
    }

    /// `gcn.patterns / baseline.patterns` (the paper reports 0.94).
    pub fn patterns_ratio(&self) -> f64 {
        if self.baseline.patterns == 0 {
            return if self.gcn.patterns == 0 {
                1.0
            } else {
                f64::INFINITY
            };
        }
        self.gcn.patterns as f64 / self.baseline.patterns as f64
    }

    /// Coverage difference `gcn - baseline` in percentage points (the
    /// paper reports ~0).
    pub fn coverage_delta_pp(&self) -> f64 {
        (self.gcn.coverage - self.baseline.coverage) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnt_netlist::{generate, GeneratorConfig, NodeId};

    #[test]
    fn evaluate_counts_ops_and_grades_same_faults() {
        let original = generate(&GeneratorConfig::sized("ev", 5, 600));
        let mut modified = original.clone();
        modified
            .insert_observation_point(NodeId::from_index(100))
            .unwrap();
        modified
            .insert_observation_point(NodeId::from_index(200))
            .unwrap();
        let cfg = AtpgConfig {
            max_patterns: 1_024,
            ..Default::default()
        };
        let report = evaluate_insertion(&original, &modified, &cfg);
        assert_eq!(report.ops, 2);
        assert!(report.coverage > 0.0);
        // Adding observation points never reduces coverage.
        let base = evaluate_insertion(&original, &original, &cfg);
        assert!(report.coverage >= base.coverage);
        assert_eq!(base.ops, 0);
    }

    #[test]
    fn ratios() {
        let row = ComparisonRow {
            baseline: TestabilityReport {
                design: "B1".into(),
                ops: 100,
                patterns: 200,
                coverage: 0.993,
            },
            gcn: TestabilityReport {
                design: "B1".into(),
                ops: 89,
                patterns: 188,
                coverage: 0.993,
            },
        };
        assert!((row.ops_ratio() - 0.89).abs() < 1e-12);
        assert!((row.patterns_ratio() - 0.94).abs() < 1e-12);
        assert_eq!(row.coverage_delta_pp(), 0.0);
    }

    #[test]
    fn degenerate_ratios() {
        let report = |ops, patterns| TestabilityReport {
            design: "x".into(),
            ops,
            patterns,
            coverage: 1.0,
        };
        let row = ComparisonRow {
            baseline: report(0, 0),
            gcn: report(0, 0),
        };
        assert_eq!(row.ops_ratio(), 1.0);
        assert_eq!(row.patterns_ratio(), 1.0);
        let row = ComparisonRow {
            baseline: report(0, 0),
            gcn: report(3, 1),
        };
        assert!(row.ops_ratio().is_infinite());
    }

    #[test]
    #[should_panic(expected = "must extend the original")]
    fn shrunk_design_panics() {
        let original = generate(&GeneratorConfig::sized("p", 6, 500));
        let smaller = generate(&GeneratorConfig::sized("p", 6, 300));
        let _ = evaluate_insertion(&original, &smaller, &AtpgConfig::default());
    }
}
