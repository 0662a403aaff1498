//! Random-pattern ATPG with per-pattern fault dropping.
//!
//! Stands in for the commercial ATPG of Table 3. Batches of 64 random
//! patterns are simulated; faults are graded with critical path tracing;
//! a pattern is *kept* iff it is the first (within greedy forward
//! selection) to detect some not-yet-detected fault. The run stops when
//! the pattern budget is exhausted, the target coverage is reached, or a
//! window of consecutive batches detects nothing new.
//!
//! Both TPI flows of Table 3 are measured through this same engine, so the
//! `#PAs` / `Coverage` comparison is apples-to-apples.

use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use gcnt_netlist::{Netlist, Result};

use crate::cpt::sensitivity;
use crate::fault::{collapsed_faults, Fault};
use crate::sim::{simulate, simulate_random};

/// ATPG configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AtpgConfig {
    /// Maximum number of patterns to apply (rounded up to a multiple of
    /// 64).
    pub max_patterns: usize,
    /// Stop early once this stuck-at coverage is reached (`1.0` never
    /// triggers early).
    pub target_coverage: f64,
    /// Stop early after this many consecutive batches that detect no new
    /// fault.
    pub useless_batch_limit: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            max_patterns: 16_384,
            target_coverage: 1.0,
            useless_batch_limit: 8,
            seed: 0xA796,
        }
    }
}

/// Outcome of an ATPG run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AtpgResult {
    /// Patterns kept by greedy forward selection (`#PAs` of Table 3).
    pub patterns_kept: usize,
    /// Patterns remaining after the reverse-order compaction pass
    /// (`<= patterns_kept`).
    pub patterns_compacted: usize,
    /// Patterns simulated in total.
    pub patterns_applied: usize,
    /// Faults detected.
    pub detected: usize,
    /// Size of the collapsed fault list.
    pub total_faults: usize,
}

impl AtpgResult {
    /// Stuck-at fault coverage in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.total_faults == 0 {
            return 0.0;
        }
        self.detected as f64 / self.total_faults as f64
    }
}

/// Runs random-pattern ATPG over the design's collapsed fault list.
///
/// # Errors
///
/// None: a [`Netlist`] is acyclic by construction. The `Result` is kept
/// for callers written against the fallible signature.
///
/// # Examples
///
/// ```
/// use gcnt_dft::atpg::{run_random_atpg, AtpgConfig};
/// use gcnt_netlist::{generate, GeneratorConfig};
///
/// let net = generate(&GeneratorConfig::sized("a", 2, 500));
/// let result = run_random_atpg(&net, &AtpgConfig::default())?;
/// assert!(result.coverage() > 0.5);
/// # Ok::<(), gcnt_netlist::NetlistError>(())
/// ```
pub fn run_random_atpg(net: &Netlist, cfg: &AtpgConfig) -> Result<AtpgResult> {
    let faults = collapsed_faults(net);
    Ok(run_random_atpg_on(net, &faults, cfg))
}

/// Runs ATPG against a caller-supplied fault list (e.g. the shared
/// pre-insertion fault list when comparing TPI flows).
#[expect(
    clippy::indexing_slicing,
    reason = "node-indexed simulation words: every `NodeId` of the simulated netlist is below its node count"
)]
pub fn run_random_atpg_on(net: &Netlist, faults: &[Fault], cfg: &AtpgConfig) -> AtpgResult {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(cfg.seed);
    let max_batches = cfg.max_patterns.div_ceil(64).max(1);
    let mut detected = vec![false; faults.len()];
    let mut detected_count = 0usize;
    let mut patterns_kept = 0usize;
    let mut patterns_applied = 0usize;
    let mut useless_batches = 0usize;
    // Pseudo inputs in a fixed order, for extracting kept stimuli.
    let pseudo_inputs: Vec<gcnt_netlist::NodeId> = net
        .nodes()
        .filter(|&v| net.kind(v).is_pseudo_input())
        .collect();
    // One stimulus per kept pattern: one bool per pseudo input.
    let mut kept_stimuli: Vec<Vec<bool>> = Vec::new();

    for _ in 0..max_batches {
        let values = simulate_random(net, &mut rng);
        let sens = sensitivity(net, &values);
        patterns_applied += 64;
        // For each undetected fault, find the first pattern in this batch
        // that detects it; greedy forward selection keeps exactly the
        // patterns that first-detect at least one fault.
        let mut kept_mask = 0u64;
        let mut newly = 0usize;
        for (i, fault) in faults.iter().enumerate() {
            if detected[i] {
                continue;
            }
            let good = values[fault.node.index()];
            let excited = if fault.stuck_at { !good } else { good };
            let word = excited & sens[fault.node.index()];
            if word != 0 {
                detected[i] = true;
                detected_count += 1;
                newly += 1;
                kept_mask |= 1u64 << word.trailing_zeros();
            }
        }
        patterns_kept += kept_mask.count_ones() as usize;
        let mut mask = kept_mask;
        while mask != 0 {
            let bit = mask.trailing_zeros();
            mask &= mask - 1;
            kept_stimuli.push(
                pseudo_inputs
                    .iter()
                    .map(|pi| values[pi.index()] & (1u64 << bit) != 0)
                    .collect(),
            );
        }
        if newly == 0 {
            useless_batches += 1;
            if useless_batches >= cfg.useless_batch_limit {
                break;
            }
        } else {
            useless_batches = 0;
        }
        if detected_count as f64 >= cfg.target_coverage * faults.len() as f64 {
            break;
        }
    }

    let patterns_compacted = reverse_order_compaction(net, faults, &pseudo_inputs, &kept_stimuli);

    AtpgResult {
        patterns_kept,
        patterns_compacted,
        patterns_applied,
        detected: detected_count,
        total_faults: faults.len(),
    }
}

/// Reverse-order pattern compaction: re-grades the kept patterns from the
/// *last* to the first; a pattern survives only if it detects a fault not
/// already detected by a later-surviving pattern. Late patterns were kept
/// for the stubborn faults, so they tend to cover the easy faults of early
/// patterns too — the classic static-compaction win.
#[expect(
    clippy::indexing_slicing,
    reason = "node-indexed simulation words: every `NodeId` of the simulated netlist is below its node count"
)]
fn reverse_order_compaction(
    net: &Netlist,
    faults: &[Fault],
    pseudo_inputs: &[gcnt_netlist::NodeId],
    kept_stimuli: &[Vec<bool>],
) -> usize {
    if kept_stimuli.is_empty() {
        return 0;
    }
    let n = net.node_count();
    let mut detected = vec![false; faults.len()];
    let mut survivors = 0usize;
    for chunk in kept_stimuli.rchunks(64) {
        // Pack up to 64 stimuli into one word batch (bit i = chunk[i],
        // which is already reverse order across chunks).
        let mut words = vec![0u64; n];
        for (i, stim) in chunk.iter().rev().enumerate() {
            for (pi, &bit) in pseudo_inputs.iter().zip(stim) {
                if bit {
                    words[pi.index()] |= 1u64 << i;
                }
            }
        }
        let values = simulate(net, |v| words[v.index()]);
        let sens = sensitivity(net, &values);
        let mut kept_mask = 0u64;
        for (i, fault) in faults.iter().enumerate() {
            if detected[i] {
                continue;
            }
            let good = values[fault.node.index()];
            let excited = if fault.stuck_at { !good } else { good };
            let word = excited & sens[fault.node.index()];
            if word != 0 {
                detected[i] = true;
                kept_mask |= 1u64 << word.trailing_zeros();
            }
        }
        survivors += kept_mask.count_ones() as usize;
    }
    survivors
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnt_netlist::{generate, CellKind, GeneratorConfig, NetlistBuilder};

    #[test]
    fn full_coverage_on_trivial_circuit() {
        let mut net = NetlistBuilder::new("trivial");
        let a = net.add_cell(CellKind::Input);
        let g = net.add_cell(CellKind::Not);
        let o = net.add_cell(CellKind::Output);
        net.connect(a, g).unwrap();
        net.connect(g, o).unwrap();
        let net = net.build().unwrap();
        let result = run_random_atpg(&net, &AtpgConfig::default()).unwrap();
        assert_eq!(result.coverage(), 1.0);
        // SA0 and SA1 of both a and g need opposite input values: at
        // least 2 patterns.
        assert!(result.patterns_kept >= 2);
    }

    #[test]
    fn coverage_reasonable_on_generated_design() {
        let net = generate(&GeneratorConfig::sized("cov", 7, 1_500));
        let result = run_random_atpg(&net, &AtpgConfig::default()).unwrap();
        assert!(result.coverage() > 0.8, "coverage {}", result.coverage());
        assert!(result.patterns_kept < result.patterns_applied);
    }

    #[test]
    fn observation_points_improve_coverage_and_patterns() {
        // The central mechanism of the whole paper: inserting OPs at
        // hard-to-observe nodes raises coverage.
        let mut cfg = GeneratorConfig::sized("opi", 9, 1_200);
        cfg.shadow_regions = 4;
        let net = generate(&cfg);
        let atpg_cfg = AtpgConfig {
            max_patterns: 4_096,
            ..Default::default()
        };
        let before = run_random_atpg(&net, &atpg_cfg).unwrap();

        // Observe every difficult node (found via the labeler).
        let labels = crate::labeler::label_difficult_to_observe(
            &net,
            &crate::labeler::LabelConfig {
                patterns: 2_048,
                threshold: 0.01,
                seed: 5,
            },
        )
        .unwrap();
        let mut improved = net.clone();
        let faults = collapsed_faults(&net); // same fault list for both
        for (i, &l) in labels.labels.iter().enumerate() {
            if l == 1 {
                improved
                    .insert_observation_point(gcnt_netlist::NodeId::from_index(i))
                    .unwrap();
            }
        }
        let after = run_random_atpg_on(&improved, &faults, &atpg_cfg);
        assert!(
            after.coverage() >= before.coverage(),
            "coverage {} -> {}",
            before.coverage(),
            after.coverage()
        );
    }

    #[test]
    fn compaction_never_exceeds_kept_and_preserves_coverage() {
        let net = generate(&GeneratorConfig::sized("compact", 21, 1_200));
        let result = run_random_atpg(&net, &AtpgConfig::default()).unwrap();
        assert!(result.patterns_compacted <= result.patterns_kept);
        assert!(result.patterns_compacted > 0);
        // Compaction must still detect every fault the kept set detected;
        // that is implicit in its construction (it re-grades the same
        // patterns), so here we only sanity-check the ratio.
        let ratio = result.patterns_compacted as f64 / result.patterns_kept as f64;
        assert!(ratio > 0.2, "suspiciously aggressive compaction: {ratio}");
    }

    #[test]
    fn deterministic_per_seed() {
        let net = generate(&GeneratorConfig::sized("det", 3, 700));
        let cfg = AtpgConfig::default();
        let a = run_random_atpg(&net, &cfg).unwrap();
        let b = run_random_atpg(&net, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn early_stop_on_useless_batches() {
        // A circuit with an unobservable region never reaches 100%: the
        // useless-batch limit must end the run early.
        let mut net = NetlistBuilder::new("stuck");
        let a = net.add_cell(CellKind::Input);
        let dangling = net.add_cell(CellKind::Not);
        net.connect(a, dangling).unwrap();
        let o = net.add_cell(CellKind::Output);
        let buf = net.add_cell(CellKind::Buf);
        net.connect(a, buf).unwrap();
        net.connect(buf, o).unwrap();
        let net = net.build().unwrap();
        let cfg = AtpgConfig {
            max_patterns: 1 << 20,
            useless_batch_limit: 3,
            ..Default::default()
        };
        let result = run_random_atpg(&net, &cfg).unwrap();
        assert!(result.patterns_applied < 1 << 20);
        assert!(result.coverage() < 1.0);
    }

    #[test]
    fn coverage_of_empty_fault_list() {
        let net = NetlistBuilder::new("empty").build().unwrap();
        let r = AtpgResult {
            patterns_kept: 0,
            patterns_compacted: 0,
            patterns_applied: 0,
            detected: 0,
            total_faults: 0,
        };
        assert_eq!(r.coverage(), 0.0);
        drop(net);
    }
}
