//! What the inference-time filter saves on the benchmark's own designs
//! (EXPERIMENTS.md#filtered-cascade): how many rows each stage of the
//! checked-in cascade passes on, how large the backward halo of those
//! survivors is per embedding layer, what the `Budget` is charged, and how
//! one filtered `MultiStageGcn::predict_proba_budgeted_with` compares with
//! running every stage over every row — at the fixture's threshold and at
//! threshold 0, where everybody survives and the row path is at its worst.
//!
//! ```text
//! cargo run --release --example filtered_cascade            # 2k, 20k, 120k
//! cargo run --release --example filtered_cascade -- 20000   # one size
//! ```

use std::time::Instant;

use gcn_testability::gcn::features::FeatureNormalizer;
use gcn_testability::gcn::{GraphData, GraphTensors, MatrixBackend, MultiStageGcn};
use gcn_testability::netlist::{generate, DesignPreset, GeneratorConfig};
use gcn_testability::tensor::{Budget, Matrix};

/// The two fields of `benchmark/fixtures/cascade_b1.json` read here.
#[derive(serde::Deserialize)]
struct Fixture {
    normalizer: FeatureNormalizer,
    model: MultiStageGcn,
}

/// The benchmark's seed derivation (`benchmark/src/spec.rs`, SplitMix64).
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median wall time of five calls, in ms.
fn median_ms(
    mut run: impl FnMut() -> Result<(), Box<dyn std::error::Error>>,
) -> Result<f64, Box<dyn std::error::Error>> {
    let mut ms = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        run()?;
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    ms.sort_by(f64::total_cmp);
    Ok(ms[ms.len() / 2])
}

/// Every stage over every row, then one value per node: the pass before
/// the filter, rebuilt from public calls.
fn unfiltered(
    model: &MultiStageGcn,
    t: &GraphTensors,
    x: &Matrix,
) -> Result<Vec<f32>, Box<dyn std::error::Error>> {
    let mut backend = MatrixBackend::auto(t);
    let mut per_stage = Vec::new();
    for gcn in model.stages() {
        per_stage.push(gcn.predict_proba_budgeted_with(
            t,
            x,
            &Budget::unlimited(),
            &mut backend,
        )?);
    }
    let last = per_stage.len() - 1;
    Ok((0..t.node_count())
        .map(|v| {
            for stage in &per_stage[..last] {
                if stage[v] < model.filter_threshold() {
                    return stage[v].min(0.49);
                }
            }
            per_stage[last][v]
        })
        .collect())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let only: Option<usize> = std::env::args().nth(1).map(|s| s.parse()).transpose()?;
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/benchmark/fixtures/cascade_b1.json"
    );
    let fixture: Fixture = serde_json::from_str(&std::fs::read_to_string(path)?)?;
    // (workload, its base design, its seed stream) as `benchmark/` has them.
    let workloads: [(&str, GeneratorConfig, u64); 3] = [
        ("serve_mixed_2k", DesignPreset::B1.config(2_000), 4),
        ("flow_b1_20k", DesignPreset::B1.config(20_000), 2),
        ("infer_b1_120k", DesignPreset::B1.paper_config(), 1),
    ];
    for (workload, base, stream) in workloads {
        let net = generate(&GeneratorConfig {
            seed: mix(20190602, stream * 1000),
            ..base
        });
        let n = net.node_count();
        if only.is_some_and(|want| n.abs_diff(want) * 10 > want) {
            continue;
        }
        let data = GraphData::from_netlist(&net, Some(&fixture.normalizer))?;
        let (t, x) = (&data.tensors, &data.features);
        println!("{workload}: design variant 0, {n} nodes");

        // Who reaches each later stage, and the rows its layers need.
        let pct = |rows: usize| 100.0 * rows as f64 / n as f64;
        let mut alive: Vec<usize> = (0..n).collect();
        for (s, gcn) in fixture.model.stages().iter().enumerate() {
            if s > 0 {
                let mut halos = Vec::new();
                let mut need = alive.clone();
                for _ in 0..gcn.depth() {
                    halos.push(format!("{:.1} %", pct(need.len())));
                    need = t.halo_step(&need);
                }
                println!(
                    "  stage {s} sees {:.2} % of rows; needs E_D..E_1 on {}",
                    pct(alive.len()),
                    halos.join(" / ")
                );
            }
            let p = gcn.predict_proba(t, x)?;
            alive.retain(|&v| p[v] >= fixture.model.filter_threshold());
        }

        for (label, threshold) in [
            ("fixture threshold", fixture.model.filter_threshold()),
            ("threshold 0, everybody survives", 0.0),
        ] {
            let model = MultiStageGcn::from_stages(fixture.model.stages().to_vec(), threshold);
            let budget = Budget::unlimited();
            let filtered =
                model.predict_proba_budgeted_with(t, x, &budget, &mut MatrixBackend::auto(t))?;
            let same = filtered
                .iter()
                .zip(&unfiltered(&model, t, x)?)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            let full_rows = model.stages().iter().map(|g| g.depth()).sum::<usize>() * n;
            let filtered_ms = median_ms(|| {
                let mut backend = MatrixBackend::auto(t);
                model.predict_proba_budgeted_with(t, x, &Budget::unlimited(), &mut backend)?;
                Ok(())
            })?;
            let unfiltered_ms = median_ms(|| unfiltered(&model, t, x).map(drop))?;
            println!(
                "  {label}: {} of {full_rows} rows charged; pass {filtered_ms:.1} ms filtered, \
                 {unfiltered_ms:.1} ms unfiltered ({:.2}x); bitwise equal: {same}",
                budget.spent(),
                filtered_ms / unfiltered_ms
            );
        }
    }
    Ok(())
}
