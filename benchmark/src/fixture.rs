//! The checked-in model every workload loads: a 3-stage paper-shape
//! cascade plus the `FeatureNormalizer` it was trained with. Inference,
//! flow and serving all read it, so a change to training code cannot move
//! their inputs.

use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use gcnt_core::features::{raw_features_of, FeatureNormalizer};
use gcnt_core::{GraphData, MultiStageConfig, MultiStageGcn};
use gcnt_dft::labeler::{label_difficult_to_observe, LabelConfig};
use gcnt_netlist::{generate, DesignPreset, Netlist};
use gcnt_store::fnv1a64;

/// FNV-1a 64 of `fixtures/cascade_b1.json`, verified at every start.
/// `gcnt-benchmark fixture` prints the value to pin after regenerating.
pub const FIXTURE_FNV1A: u64 = 0xa349_4bfd_4907_a23a;

/// How the fixture was made, recorded in the file itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FixtureMeta {
    pub nodes: usize,
    pub design_seeds: Vec<u64>,
    pub label_patterns: usize,
    pub label_threshold: f64,
    pub label_seed: u64,
    pub epochs_per_stage: usize,
    pub train_seed: u64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fixture {
    pub meta: FixtureMeta,
    pub normalizer: FeatureNormalizer,
    pub model: MultiStageGcn,
}

/// A directory of this package, fixed when it was built: the benchmark is
/// built inside the checkout it measures and is not relocatable.
pub fn package_dir(sub: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(sub)
}

fn path() -> PathBuf {
    package_dir("fixtures").join("cascade_b1.json")
}

/// Reads and verifies the fixture.
///
/// # Errors
///
/// A missing file, a checksum other than [`FIXTURE_FNV1A`], or JSON that
/// is not a [`Fixture`].
pub fn load() -> Result<Fixture, String> {
    let path = path();
    let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let sum = fnv1a64(&bytes);
    if sum != FIXTURE_FNV1A {
        return Err(format!(
            "{} has checksum {sum:#018x}, pinned is {FIXTURE_FNV1A:#018x}",
            path.display()
        ));
    }
    let text = String::from_utf8(bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The label configuration shared by the fixture and `train_b1_20k`.
pub fn label_config() -> LabelConfig {
    LabelConfig::default()
}

/// The two labelled training designs of a given scale: B1 and B2 configs
/// with the given generator seeds.
pub fn training_designs(nodes: usize, seeds: [u64; 2]) -> [Netlist; 2] {
    let make = |preset: DesignPreset, seed: u64| {
        let mut cfg = preset.config(nodes);
        cfg.seed = seed;
        generate(&cfg)
    };
    [
        make(DesignPreset::B1, seeds[0]),
        make(DesignPreset::B2, seeds[1]),
    ]
}

/// Featurises and labels `nets` with one shared normaliser.
///
/// # Errors
///
/// A cyclic netlist (the generator never makes one).
pub fn labelled_graphs(
    nets: &[Netlist],
    normalizer: Option<&FeatureNormalizer>,
) -> Result<(FeatureNormalizer, Vec<GraphData>), String> {
    let normalizer = match normalizer {
        Some(n) => n.clone(),
        None => {
            let raw: Vec<_> = nets
                .iter()
                .map(raw_features_of)
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
            FeatureNormalizer::fit(&raw.iter().collect::<Vec<_>>())
        }
    };
    let graphs = nets
        .iter()
        .map(|net| {
            let labels = label_difficult_to_observe(net, &label_config())
                .map_err(|e| e.to_string())?
                .labels;
            GraphData::from_netlist(net, Some(&normalizer))
                .map_err(|e| e.to_string())?
                .try_with_labels(labels)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((normalizer, graphs))
}

/// Trains the cascade once and writes `fixtures/cascade_b1.json`.
///
/// # Errors
///
/// Training or I/O failures.
pub fn regenerate() -> Result<(), String> {
    let label = label_config();
    let meta = FixtureMeta {
        nodes: 20_000,
        design_seeds: vec![0xF1B1, 0xF1B2],
        label_patterns: label.patterns,
        label_threshold: label.threshold,
        label_seed: label.seed,
        epochs_per_stage: 40,
        train_seed: 0xF1,
    };
    let nets = training_designs(meta.nodes, [meta.design_seeds[0], meta.design_seeds[1]]);
    let (normalizer, graphs) = labelled_graphs(&nets, None)?;
    for g in &graphs {
        eprintln!(
            "{}: {} nodes, {} positives",
            g.name,
            g.node_count(),
            g.positive_count()
        );
    }
    let cfg = MultiStageConfig {
        epochs_per_stage: meta.epochs_per_stage,
        seed: meta.train_seed,
        ..MultiStageConfig::default()
    };
    let refs: Vec<&GraphData> = graphs.iter().collect();
    let (model, reports) = MultiStageGcn::train(&cfg, &refs).map_err(|e| e.to_string())?;
    for r in &reports {
        eprintln!(
            "stage {}: {} active ({} pos), pos_weight {:.1}, filtered {}",
            r.stage, r.active, r.positives, r.pos_weight, r.filtered
        );
    }
    let fixture = Fixture {
        meta,
        normalizer,
        model,
    };
    let text = serde_json::to_string(&fixture).map_err(|e| e.to_string())?;
    let path = path();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "wrote {} ({} bytes); pin FIXTURE_FNV1A = {:#018x}",
        path.display(),
        text.len(),
        fnv1a64(text.as_bytes())
    );
    Ok(())
}
