//! Table 3 — testability results: the commercial-tool proxy vs the
//! GCN-guided iterative OP-insertion flow (§4 / §5).
//!
//! Protocol: for each design, a multi-stage GCN is trained on the other
//! three designs (inductive, as in the paper), then:
//!
//! * the *baseline* runs iterative testability analysis and observes every
//!   flagged node (what production DFT tools do), and
//! * the *GCN flow* predicts difficult nodes and inserts impact-ranked
//!   observation points iteratively (Fig. 7);
//!
//! both modified designs are graded by the same random-pattern ATPG
//! against the original design's fault list.
//!
//! Paper ratios (GCN / baseline): #OPs 0.89, #PAs 0.94, coverage 1.00.
//!
//! ```text
//! cargo run --release -p gcnt-bench --bin table3 -- --nodes 3000 --epochs 60
//! ```

use serde::Serialize;

use gcnt_bench::{prepare_designs, refit_normalizer, write_json, Args};
use gcnt_core::{train_test_rotation, GraphData, MultiStageConfig, MultiStageGcn};
use gcnt_dft::atpg::AtpgConfig;
use gcnt_dft::baseline::{testability_opi, BaselineConfig};
use gcnt_dft::flow::{run_gcn_opi, FlowConfig};
use gcnt_dft::labeler::LabelConfig;
use gcnt_dft::report::{evaluate_insertion, ComparisonRow};

#[derive(Serialize)]
struct Table3 {
    rows: Vec<ComparisonRow>,
    avg_ops_ratio: f64,
    avg_patterns_ratio: f64,
    avg_coverage_delta_pp: f64,
}

fn main() {
    let args = Args::parse();
    let nodes = args.get_usize("nodes", 3_000);
    let epochs = args.get_usize("epochs", 60);

    println!(
        "Table 3: testability comparison, industrial-tool proxy vs GCN flow (~{nodes} nodes)\n"
    );
    let label_cfg = LabelConfig::default();
    let mut designs = prepare_designs(nodes, &label_cfg);
    let atpg_cfg = AtpgConfig::default();

    println!(
        "{:<8} {:>6} {:>6} {:>9}   {:>6} {:>6} {:>9}",
        "Design", "#OPs", "#PAs", "Coverage", "#OPs", "#PAs", "Coverage"
    );
    println!("{:<8} {:^24}   {:^24}", "", "Industrial-proxy", "GCN-Flow");

    let mut rows = Vec::new();
    for (train_idx, test_idx) in train_test_rotation(4) {
        refit_normalizer(&mut designs, &train_idx);
        let train_refs: Vec<&GraphData> = train_idx.iter().map(|&i| &designs[i].data).collect();
        let ms_cfg = MultiStageConfig {
            epochs_per_stage: epochs,
            seed: 0x7AB3 + test_idx as u64,
            ..MultiStageConfig::default()
        };
        let (model, _) = MultiStageGcn::train(&ms_cfg, &train_refs).expect("shapes agree");

        let original = designs[test_idx].netlist.clone();
        let normalizer = designs[test_idx].data.normalizer.clone();

        // GCN flow.
        let mut gcn_design = original.clone();
        run_gcn_opi(&mut gcn_design, &normalizer, &model, &FlowConfig::default())
            .expect("flow runs on generated designs");

        // Baseline.
        let mut base_design = original.clone();
        testability_opi(
            &mut base_design,
            &BaselineConfig {
                label: label_cfg.clone(),
                ..Default::default()
            },
        )
        .expect("baseline runs on generated designs");

        let row = ComparisonRow {
            baseline: evaluate_insertion(&original, &base_design, &atpg_cfg),
            gcn: evaluate_insertion(&original, &gcn_design, &atpg_cfg),
        };
        println!(
            "{:<8} {:>6} {:>6} {:>8.2}%   {:>6} {:>6} {:>8.2}%",
            row.baseline.design,
            row.baseline.ops,
            row.baseline.patterns,
            row.baseline.coverage * 100.0,
            row.gcn.ops,
            row.gcn.patterns,
            row.gcn.coverage * 100.0
        );
        rows.push(row);
    }

    let n = rows.len() as f64;
    let avg_ops_ratio = rows.iter().map(ComparisonRow::ops_ratio).sum::<f64>() / n;
    let avg_patterns_ratio = rows.iter().map(ComparisonRow::patterns_ratio).sum::<f64>() / n;
    let avg_coverage_delta_pp = rows
        .iter()
        .map(ComparisonRow::coverage_delta_pp)
        .sum::<f64>()
        / n;
    println!(
        "\nratios (GCN / baseline): #OPs {avg_ops_ratio:.2}, #PAs {avg_patterns_ratio:.2}, \
         coverage delta {avg_coverage_delta_pp:.2}pp"
    );
    println!("paper: #OPs 0.89, #PAs 0.94, coverage delta 0.00pp");
    write_json(
        "table3",
        &Table3 {
            rows,
            avg_ops_ratio,
            avg_patterns_ratio,
            avg_coverage_delta_pp,
        },
    );
}
