//! Testability-analysis-driven observation point insertion — the stand-in
//! for the commercial tool of Table 3.
//!
//! [`testability_opi`] is iterative random-pattern testability analysis:
//! every node flagged difficult-to-observe gets an observation point, then
//! the analysis is repeated on the modified design until no flags remain.
//! This mirrors how production DFT tools drive OP insertion from their
//! testability report, and is the baseline used for Table 3. Because it
//! observes *every* flagged node rather than ranking by fan-in-cone
//! impact, it inserts more points than the paper's GCN flow for the same
//! final coverage.

use serde::{Deserialize, Serialize};

use gcnt_netlist::{Netlist, NodeId, Result};

use crate::labeler::{label_difficult_to_observe, LabelConfig};

/// Configuration of [`testability_opi`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineConfig {
    /// Labeler settings used for each analysis round.
    pub label: LabelConfig,
    /// Maximum analysis/insert rounds.
    pub max_iterations: usize,
    /// Hard cap on inserted observation points.
    pub max_ops: usize,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            label: LabelConfig::default(),
            max_iterations: 8,
            max_ops: usize::MAX,
        }
    }
}

/// Outcome of a baseline insertion run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaselineOutcome {
    /// Nodes that received an observation point, in insertion order.
    pub inserted: Vec<NodeId>,
    /// Analysis rounds executed.
    pub iterations: usize,
    /// Whether the final analysis round found no difficult nodes.
    pub converged: bool,
}

/// Iterative testability-analysis OP insertion (see module docs).
///
/// # Errors
///
/// Returns a netlist error if an insertion is refused.
pub fn testability_opi(net: &mut Netlist, cfg: &BaselineConfig) -> Result<BaselineOutcome> {
    let mut inserted = Vec::new();
    let mut converged = false;
    let mut iterations = 0;
    for round in 0..cfg.max_iterations {
        iterations = round + 1;
        let mut label_cfg = cfg.label.clone();
        // Fresh patterns each round so a borderline node cannot hide
        // behind one lucky pattern set.
        label_cfg.seed = cfg.label.seed.wrapping_add(round as u64);
        let result = label_difficult_to_observe(net, &label_cfg)?;
        let positives: Vec<NodeId> = net
            .nodes()
            .filter(|v| result.labels.get(v.index()) == Some(&1))
            .collect();
        if positives.is_empty() {
            converged = true;
            break;
        }
        for target in positives {
            if inserted.len() >= cfg.max_ops {
                return Ok(BaselineOutcome {
                    inserted,
                    iterations,
                    converged: false,
                });
            }
            net.insert_observation_point(target)?;
            inserted.push(target);
        }
    }
    Ok(BaselineOutcome {
        inserted,
        iterations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnt_netlist::{generate, GeneratorConfig};

    fn shadowed_design(seed: u64) -> Netlist {
        let mut cfg = GeneratorConfig::sized("base", seed, 1_200);
        cfg.shadow_regions = 3;
        generate(&cfg)
    }

    #[test]
    fn testability_opi_converges_and_clears_flags() {
        let mut net = shadowed_design(51);
        let cfg = BaselineConfig {
            label: LabelConfig {
                patterns: 2_048,
                threshold: 0.005,
                seed: 2,
            },
            ..Default::default()
        };
        let before_outputs = net.primary_outputs().len();
        let outcome = testability_opi(&mut net, &cfg).unwrap();
        assert!(outcome.converged, "did not converge");
        assert!(!outcome.inserted.is_empty(), "nothing inserted");
        assert_eq!(
            net.primary_outputs().len(),
            before_outputs + outcome.inserted.len()
        );
        // After convergence, a fresh analysis (different pattern set)
        // finds at most a couple of borderline stragglers — nodes whose
        // true observability sits right at the threshold flip between
        // pattern samples.
        let fresh = label_difficult_to_observe(
            &net,
            &LabelConfig {
                patterns: 2_048,
                threshold: 0.005,
                seed: 77,
            },
        )
        .unwrap();
        assert!(
            fresh.positive_count() <= 3,
            "too many residual positives: {}",
            fresh.positive_count()
        );
    }

    #[test]
    fn max_ops_cap_is_respected() {
        let mut net = shadowed_design(52);
        let cfg = BaselineConfig {
            label: LabelConfig {
                patterns: 1_024,
                threshold: 0.01,
                seed: 3,
            },
            max_iterations: 8,
            max_ops: 5,
        };
        let outcome = testability_opi(&mut net, &cfg).unwrap();
        assert!(outcome.inserted.len() <= 5);
    }
}
