//! Quickstart: generate a synthetic scan design, label its
//! difficult-to-observe nodes with the DFT substrate, train the paper's
//! GCN on a balanced sample, and evaluate.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gcn_testability::dft::labeler::{label_difficult_to_observe, LabelConfig};
use gcn_testability::gcn::train::{evaluate, train, TrainConfig};
use gcn_testability::gcn::{balanced_indices, Gcn, GcnConfig, GraphData};
use gcn_testability::netlist::{generate, GeneratorConfig};
use gcn_testability::nn::seeded_rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A synthetic stand-in for an industrial scan design.
    let net = generate(&GeneratorConfig::sized("quickstart", 42, 4_000));
    let stats = net.stats();
    println!(
        "design: {} nodes, {} edges, {} PIs, {} POs, {} DFFs, depth {}",
        stats.nodes, stats.edges, stats.inputs, stats.outputs, stats.dffs, stats.max_level
    );

    // 2. Ground-truth labels from random-pattern observability analysis
    //    (the role a commercial DFT tool plays in the paper).
    let labels = label_difficult_to_observe(&net, &LabelConfig::default())?;
    println!(
        "labeled {} of {} nodes difficult-to-observe ({:.2}%)",
        labels.positive_count(),
        net.node_count(),
        100.0 * labels.positive_count() as f64 / net.node_count() as f64
    );

    // 3. Prepare graph tensors + normalised [LL, C0, C1, O] features.
    let data = GraphData::from_netlist(&net, None)?.with_labels(labels.labels);

    // 4. Train on a balanced sample (all positives + equal negatives).
    let mut rng = seeded_rng(7);
    let mask = balanced_indices(&data.labels, &mut rng);
    println!("training on a balanced sample of {} nodes", mask.len());
    let mut gcn = Gcn::new(&GcnConfig::with_depth(2), &mut rng);
    let history = train(
        &mut gcn,
        &[&data],
        std::slice::from_ref(&mask),
        &TrainConfig {
            epochs: 120,
            lr: 0.05,
            pos_weight: 1.0,
            momentum: 0.0,
        },
    )?;
    let last = history.last().expect("at least one epoch");
    println!(
        "epoch {}: loss {:.4}, train accuracy {:.3}",
        last.epoch, last.loss, last.train_accuracy
    );

    // 5. Evaluate on the balanced sample.
    let confusion = evaluate(&gcn, &data, &mask)?;
    println!(
        "balanced accuracy {:.3}, precision {:.3}, recall {:.3}, F1 {:.3}",
        confusion.accuracy(),
        confusion.precision(),
        confusion.recall(),
        confusion.f1()
    );
    println!(
        "learned aggregation weights: w_pr = {:.3}, w_su = {:.3}",
        gcn.w_pr(),
        gcn.w_su()
    );
    Ok(())
}
