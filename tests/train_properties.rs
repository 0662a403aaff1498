//! The tiled training step against the whole-matrix step it replaced.
//!
//! `masked_loss_grads` runs one graph's forward, loss and backward a tile
//! of rows at a time, keeping only the embeddings below the last layer at
//! `n` rows. The reference here is the whole-matrix step, written out from
//! the calls that stay public: `Gcn::forward`, the masked logits through
//! `weighted_softmax_cross_entropy`, their gradient scattered to `n` rows,
//! `Gcn::backward`. The loss, every gradient element and the predictions
//! must be the same bits — at depths 0–3, with no hidden head layer and
//! with odd widths, with either aggregation direction switched off, for
//! empty, full, shuffled, repeating and single-row masks, and on designs
//! under one tile, of exactly two tiles and with a ragged last tile.

use proptest::prelude::*;

use gcn_testability::gcn::pass::TILE_ROWS;
use gcn_testability::gcn::train::masked_loss_grads;
use gcn_testability::gcn::{balanced_indices, Gcn, GcnConfig, GcnGrads, GraphData, GraphTensors};
use gcn_testability::netlist::{CellKind, Netlist, NetlistBuilder};
use gcn_testability::nn::loss::weighted_softmax_cross_entropy;
use gcn_testability::nn::seeded_rng;
use gcn_testability::tensor::{ops, Matrix};

/// SplitMix64: a stream of well-mixed values from a counter.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A DAG of exactly `n` cells: every cell after the first reads one or two
/// earlier ones, mostly nearby, sometimes anywhere, so tiles share
/// neighbours across their edges.
fn dag(n: usize, seed: u64) -> Netlist {
    let mut net = NetlistBuilder::new(format!("dag-{n}"));
    let mut state = seed;
    let mut cells = Vec::with_capacity(n);
    for i in 0..n {
        let pick = mix(&mut state);
        let kind = match (i, pick % 7) {
            (0, _) | (_, 0) => CellKind::Input,
            (_, 1 | 2) => CellKind::Buf,
            (_, 3 | 4) => CellKind::And,
            _ => CellKind::Or,
        };
        let fanins = match kind {
            CellKind::Input => 0,
            CellKind::Buf => 1,
            _ => 2.min(i),
        };
        let mut from: Vec<usize> = (0..fanins)
            .map(|_| {
                let r = mix(&mut state) as usize;
                if r % 5 == 0 {
                    r / 5 % i
                } else {
                    i - 1 - (r / 5 % i.min(24))
                }
            })
            .collect();
        from.dedup();
        let kind = if from.len() == 1 { CellKind::Buf } else { kind };
        let cell = net.add_cell(kind);
        for f in from {
            net.connect(cells[f], cell).unwrap();
        }
        cells.push(cell);
    }
    net.build().unwrap()
}

/// A labelled graph of exactly `n` nodes, about one in five positive, with
/// the aggregation directions given.
fn graph(n: usize, seed: u64, use_pred: bool, use_succ: bool) -> GraphData {
    let net = dag(n, seed);
    let mut state = seed ^ 0x1ABE1;
    let labels = (0..n).map(|_| u8::from(mix(&mut state) % 5 == 0)).collect();
    let mut data = GraphData::from_netlist(&net, None)
        .unwrap()
        .with_labels(labels);
    data.tensors = GraphTensors::with_directions(&net, use_pred, use_succ);
    data
}

fn model(embed_dims: &[usize], fc_dims: &[usize], seed: u64) -> Gcn {
    let cfg = GcnConfig {
        embed_dims: embed_dims.to_vec(),
        fc_dims: fc_dims.to_vec(),
        // A negative weight, so signed zeros meet in the combines.
        w_pr_init: -0.35,
        w_su_init: 0.6,
        ..GcnConfig::default()
    };
    Gcn::new(&cfg, &mut seeded_rng(seed))
}

/// The whole-matrix step: every activation at `n` rows.
fn reference(
    gcn: &Gcn,
    data: &GraphData,
    mask: &[usize],
    class_weights: &[f32; 2],
) -> (f32, GcnGrads, Vec<usize>) {
    let (logits, cache) = gcn.forward(&data.tensors, &data.features).unwrap();
    let masked_logits = logits.gather_rows(mask);
    let labels = data.labels_at(mask);
    let (loss, dmasked) = weighted_softmax_cross_entropy(&masked_logits, &labels, class_weights);
    let mut dlogits = Matrix::zeros(logits.rows(), logits.cols());
    for (i, &node) in mask.iter().enumerate() {
        dlogits.row_mut(node).copy_from_slice(dmasked.row(i));
    }
    let grads = gcn.backward(&data.tensors, &cache, &dlogits).unwrap();
    (loss, grads, ops::argmax_rows(&masked_logits))
}

fn bits(grads: &GcnGrads) -> Vec<Vec<u32>> {
    grads
        .params()
        .iter()
        .map(|p| p.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// The step and the reference agree bit for bit; returns the loss.
fn assert_same(gcn: &Gcn, data: &GraphData, mask: &[usize], what: &str) -> f32 {
    let weights = [1.0, 3.5];
    let (want_loss, want, want_preds) = reference(gcn, data, mask, &weights);
    let (loss, got, preds) = masked_loss_grads(gcn, data, mask, &weights).unwrap();
    assert_eq!(loss.to_bits(), want_loss.to_bits(), "{what}: loss");
    assert_eq!(bits(&got), bits(&want), "{what}: gradients");
    assert_eq!(preds, want_preds, "{what}: predictions");
    loss
}

/// The masks every case runs: empty, full, a shuffled balanced sample, one
/// with a repeated row, a single row.
fn masks(data: &GraphData, seed: u64) -> Vec<(&'static str, Vec<usize>)> {
    let n = data.node_count();
    let balanced = balanced_indices(&data.labels, &mut seeded_rng(seed));
    let mut repeated: Vec<usize> = (0..n).step_by(3).collect();
    repeated.push(n / 2);
    repeated.insert(1, n - 1);
    repeated.push(n - 1);
    vec![
        ("empty", Vec::new()),
        ("full", (0..n).collect()),
        ("balanced", balanced),
        ("repeated", repeated),
        ("single", vec![n - 1]),
    ]
}

#[test]
fn every_depth_head_and_mask_matches_the_whole_matrix_step() {
    let sizes = [TILE_ROWS / 2 + 3, 2 * TILE_ROWS, 2 * TILE_ROWS + 37];
    let shapes: [(&[usize], &[usize]); 6] = [
        (&[], &[5]),
        (&[6], &[]),
        (&[7, 5], &[3]),
        (&[8, 16, 12], &[9, 4]),
        (&[32, 64, 128], &[64, 64, 128]),
        (&[3, 1, 2], &[]),
    ];
    for (s, &n) in sizes.iter().enumerate() {
        let data = graph(n, 40 + s as u64, true, true);
        for (m, (embed, fc)) in shapes.iter().enumerate() {
            let gcn = model(embed, fc, 7 + m as u64);
            for (name, mask) in masks(&data, s as u64) {
                let what = format!("{n} rows, embed {embed:?}, fc {fc:?}, {name} mask");
                let loss = assert_same(&gcn, &data, &mask, &what);
                assert!(loss.is_finite(), "{what}: loss {loss}");
            }
        }
    }
}

#[test]
fn direction_ablations_match_the_whole_matrix_step() {
    for (use_pred, use_succ) in [(true, false), (false, true), (false, false)] {
        let data = graph(TILE_ROWS + 61, 52, use_pred, use_succ);
        for (embed, fc) in [(&[6usize, 9][..], &[5usize][..]), (&[4, 8, 3], &[])] {
            let gcn = model(embed, fc, 11);
            for (name, mask) in masks(&data, 3) {
                let what = format!("pred {use_pred}, succ {use_succ}, embed {embed:?}, {name}");
                assert_same(&gcn, &data, &mask, &what);
            }
        }
    }
}

#[test]
fn a_trained_model_still_matches_the_whole_matrix_step() {
    // Ten steps of SGD through the step itself move the weights off their
    // initialisation, so dead ReLUs and saturated rows show up.
    let data = graph(3 * TILE_ROWS - 5, 77, true, true);
    let mut gcn = model(&[8, 16, 12], &[9, 4], 5);
    let mask: Vec<usize> = (0..data.node_count()).collect();
    for epoch in 0..10 {
        assert_same(&gcn, &data, &mask, &format!("epoch {epoch}"));
        let (_, grads, _) = masked_loss_grads(&gcn, &data, &mask, &[1.0, 3.5]).unwrap();
        gcn.apply_sgd(&grads, 0.5);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_designs_and_masks_match_the_whole_matrix_step(
        n in 1usize..600,
        depth in 0usize..4,
        seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u64>(), 0..80),
    ) {
        let data = graph(n, seed, true, true);
        let gcn = model(&[5, 7, 3][..depth], &[4], seed);
        // Any rows, in any order, repeats allowed.
        let mask: Vec<usize> = picks.iter().map(|&p| (p % n as u64) as usize).collect();
        assert_same(&gcn, &data, &mask, &format!("{n} rows, depth {depth}, mask {mask:?}"));
    }
}
