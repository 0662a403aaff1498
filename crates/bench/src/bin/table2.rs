//! Table 2 — balanced-set accuracy of classical models vs the GCN.
//!
//! Protocol (§5): per rotation, three designs train and the fourth tests;
//! balanced datasets (all positives + equal sampled negatives); classical
//! models (LR, RF, SVM, MLP) consume 4004-dim fan-in/fan-out cone
//! features; the GCN consumes the graph directly.
//!
//! Paper averages: LR 0.777, RF 0.792, SVM 0.814, MLP 0.856, GCN 0.931.
//!
//! ```text
//! cargo run --release -p gcnt-bench --bin table2 -- --nodes 3000 --cone 100
//! ```

use serde::Serialize;

use gcnt_bench::mlbase::features::{cone_features, ConeFeatureConfig};
use gcnt_bench::mlbase::{
    accuracy, Classifier, LinearSvm, LinearSvmConfig, LogisticRegression, LogisticRegressionConfig,
    MlpClassifier, MlpClassifierConfig, RandomForest, RandomForestConfig,
};
use gcnt_bench::{prepare_designs, refit_normalizer, write_json, Args};
use gcnt_core::train::{evaluate, train, TrainConfig};
use gcnt_core::{balanced_indices, train_test_rotation, Gcn, GcnConfig, GraphData};
use gcnt_dft::labeler::LabelConfig;
use gcnt_nn::seeded_rng;
use gcnt_tensor::{ops, Matrix};

#[derive(Serialize)]
struct Table2 {
    /// Accuracy per model per test design, plus averages.
    rows: Vec<Row>,
    averages: Vec<(String, f64)>,
}

#[derive(Serialize)]
struct Row {
    design: String,
    lr: f64,
    rf: f64,
    svm: f64,
    mlp: f64,
    gcn: f64,
}

fn main() {
    let args = Args::parse();
    let nodes = args.get_usize("nodes", 3_000);
    let epochs = args.get_usize("epochs", 150);
    let cone = args.get_usize("cone", 500);

    println!(
        "Table 2: balanced accuracy, classical models vs GCN (~{nodes}-node designs, cone {cone})\n"
    );
    let mut designs = prepare_designs(nodes, &LabelConfig::default());
    let cone_cfg = ConeFeatureConfig { cone_size: cone };

    let mut rows = Vec::new();
    for (train_idx, test_idx) in train_test_rotation(4) {
        refit_normalizer(&mut designs, &train_idx);
        let mut rng = seeded_rng(0x7AB2 + test_idx as u64);

        // Balanced node sets per design.
        let train_masks: Vec<Vec<usize>> = train_idx
            .iter()
            .map(|&i| balanced_indices(&designs[i].data.labels, &mut rng))
            .collect();
        let test_mask = balanced_indices(&designs[test_idx].data.labels, &mut rng);

        // ----- classical models on cone features -----
        let mut xs = Vec::new();
        let mut ys: Vec<usize> = Vec::new();
        for (&i, mask) in train_idx.iter().zip(&train_masks) {
            let d = &designs[i];
            xs.push(cone_features(&d.netlist, &d.data.features, mask, &cone_cfg));
            ys.extend(d.data.labels_at(mask));
        }
        let mut x_train = xs.remove(0);
        for x in xs {
            x_train = x_train.vstack(&x).expect("same cone dimension");
        }
        let (x_train, means, stds) = ops::standardize_columns(&x_train);
        let td = &designs[test_idx];
        let x_test_raw = cone_features(&td.netlist, &td.data.features, &test_mask, &cone_cfg);
        let x_test = ops::apply_standardization(&x_test_raw, &means, &stds);
        let y_test = td.data.labels_at(&test_mask);

        let acc_of = |model: &dyn Classifier, x: &Matrix| accuracy(&y_test, &model.predict(x));
        let lr_model = LogisticRegression::fit(&x_train, &ys, &LogisticRegressionConfig::default());
        let rf_model = RandomForest::fit(&x_train, &ys, &RandomForestConfig::default());
        let svm_model = LinearSvm::fit(&x_train, &ys, &LinearSvmConfig::default());
        let mlp_model = MlpClassifier::fit(
            &x_train,
            &ys,
            &MlpClassifierConfig {
                epochs,
                ..Default::default()
            },
        );

        // ----- GCN on the graph -----
        let train_refs: Vec<&GraphData> = train_idx.iter().map(|&i| &designs[i].data).collect();
        let mut gcn = Gcn::new(&GcnConfig::default(), &mut seeded_rng(42 + test_idx as u64));
        train(
            &mut gcn,
            &train_refs,
            &train_masks,
            &TrainConfig {
                epochs,
                lr: 0.05,
                pos_weight: 1.0,
                momentum: 0.0,
            },
        )
        .expect("shapes agree");
        let gcn_acc = evaluate(&gcn, &td.data, &test_mask)
            .expect("shapes agree")
            .accuracy();

        let row = Row {
            design: td.netlist.name().to_string(),
            lr: acc_of(&lr_model, &x_test),
            rf: acc_of(&rf_model, &x_test),
            svm: acc_of(&svm_model, &x_test),
            mlp: acc_of(&mlp_model, &x_test),
            gcn: gcn_acc,
        };
        println!(
            "{:<6} LR {:.3}  RF {:.3}  SVM {:.3}  MLP {:.3}  GCN {:.3}",
            row.design, row.lr, row.rf, row.svm, row.mlp, row.gcn
        );
        rows.push(row);
    }

    let avg = |f: fn(&Row) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
    let averages = vec![
        ("LR".to_string(), avg(|r| r.lr)),
        ("RF".to_string(), avg(|r| r.rf)),
        ("SVM".to_string(), avg(|r| r.svm)),
        ("MLP".to_string(), avg(|r| r.mlp)),
        ("GCN".to_string(), avg(|r| r.gcn)),
    ];
    println!("\nAverage:");
    for (name, a) in &averages {
        println!("  {name:<4} {a:.3}");
    }
    println!("paper:  LR 0.777, RF 0.792, SVM 0.814, MLP 0.856, GCN 0.931");
    write_json("table2", &Table2 { rows, averages });
}
