//! End-to-end observation-point insertion (§4 of the paper):
//!
//! 1. Train a multi-stage GCN on labeled training designs.
//! 2. Run the iterative impact-ranked OP insertion flow on an unseen
//!    design.
//! 3. Run the testability-analysis baseline on the same design.
//! 4. Grade both through the same random-pattern ATPG and print a Table 3
//!    style comparison row.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example testability_flow
//! ```

use gcn_testability::dft::atpg::AtpgConfig;
use gcn_testability::dft::baseline::{testability_opi, BaselineConfig};
use gcn_testability::dft::flow::{run_gcn_opi, FlowConfig};
use gcn_testability::dft::labeler::{label_difficult_to_observe, LabelConfig};
use gcn_testability::dft::report::{evaluate_insertion, ComparisonRow};
use gcn_testability::gcn::features::FeatureNormalizer;
use gcn_testability::gcn::{GraphData, MultiStageConfig, MultiStageGcn};
use gcn_testability::netlist::{generate, GeneratorConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = 3_000;
    let label_cfg = LabelConfig::default();

    // --- Training designs -------------------------------------------------
    println!("== preparing training designs ==");
    let mut train_data = Vec::new();
    let mut raw_mats = Vec::new();
    for seed in [11u64, 12, 13] {
        let net = generate(&GeneratorConfig::sized(format!("train{seed}"), seed, scale));
        let labels = label_difficult_to_observe(&net, &label_cfg)?;
        println!(
            "  {}: {} nodes, {} positives",
            net.name(),
            net.node_count(),
            labels.positive_count()
        );
        let data = GraphData::from_netlist(&net, None)?;
        raw_mats.push(data.raw_features.clone());
        train_data.push((data, labels.labels));
    }
    // One normaliser fitted over all training designs, reused everywhere.
    let normalizer = FeatureNormalizer::fit(&raw_mats.iter().collect::<Vec<_>>());
    let train_data: Vec<GraphData> = train_data
        .into_iter()
        .map(|(data, labels)| {
            let features = normalizer.apply(&data.raw_features);
            GraphData {
                features,
                normalizer: normalizer.clone(),
                ..data
            }
            .with_labels(labels)
        })
        .collect();

    // --- Multi-stage GCN ---------------------------------------------------
    println!("== training 3-stage GCN ==");
    let refs: Vec<&GraphData> = train_data.iter().collect();
    let ms_cfg = MultiStageConfig {
        epochs_per_stage: 60,
        ..MultiStageConfig::default()
    };
    let (model, reports) = MultiStageGcn::train(&ms_cfg, &refs)?;
    for r in &reports {
        println!(
            "  stage {}: {} active ({} pos), pos_weight {:.1}, filtered {}",
            r.stage, r.active, r.positives, r.pos_weight, r.filtered
        );
    }

    // --- Unseen test design ------------------------------------------------
    let original = generate(&GeneratorConfig::sized("unseen", 99, scale));
    println!(
        "== test design: {} nodes, {} edges ==",
        original.node_count(),
        original.edge_count()
    );

    // GCN-guided flow.
    let mut gcn_design = original.clone();
    let outcome = run_gcn_opi(&mut gcn_design, &normalizer, &model, &FlowConfig::default())?;
    println!(
        "GCN flow: {} OPs in {} iterations (converged: {})",
        outcome.inserted.len(),
        outcome.history.len(),
        outcome.converged
    );

    // Baseline testability-analysis flow.
    let mut base_design = original.clone();
    let base = testability_opi(
        &mut base_design,
        &BaselineConfig {
            label: label_cfg,
            ..Default::default()
        },
    )?;
    println!(
        "baseline: {} OPs in {} rounds (converged: {})",
        base.inserted.len(),
        base.iterations,
        base.converged
    );

    // --- Grade both through the same ATPG ----------------------------------
    let atpg = AtpgConfig::default();
    let row = ComparisonRow {
        baseline: evaluate_insertion(&original, &base_design, &atpg),
        gcn: evaluate_insertion(&original, &gcn_design, &atpg),
    };
    println!("\n                #OPs   #PAs   Coverage");
    println!(
        "Industrial-proxy {:>5}  {:>5}  {:.2}%",
        row.baseline.ops,
        row.baseline.patterns,
        row.baseline.coverage * 100.0
    );
    println!(
        "GCN-Flow         {:>5}  {:>5}  {:.2}%",
        row.gcn.ops,
        row.gcn.patterns,
        row.gcn.coverage * 100.0
    );
    println!(
        "ratios: OPs {:.2}, patterns {:.2}, coverage delta {:.2}pp",
        row.ops_ratio(),
        row.patterns_ratio(),
        row.coverage_delta_pp()
    );
    Ok(())
}
