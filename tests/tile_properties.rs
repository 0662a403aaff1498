//! The row-tiled pass against two references that share none of its code.
//!
//! Every inference path — `Gcn::predict_proba*`, `MultiStageGcn::
//! predict_proba*`, a session open and a session rebuilt from its caches —
//! runs `gcnt_core`'s one layer step a tile of rows at a time, the last
//! layer fused with the head. Here each must equal, bit for bit, the pass
//! rebuilt from the whole-matrix calls that stay public
//! (`GraphTensors::aggregate` → `Linear::forward` → `ops::relu` →
//! `Mlp::predict` → `softmax_col`, every stage over every row, then the
//! cascade rule node by node), and agree within the benchmark's tolerance
//! with `recursive::predict_nodes`, which never forms a matrix at all — on
//! designs sized around a tile boundary, at depths 1–3, with a direction
//! switched off, on a hub and a chain, with nobody and everybody
//! surviving, and with the budget stopping the pass at every layer
//! boundary. (The worker count is not settable from outside `gcnt_core`:
//! one worker ≡ many is `pass::tests::one_worker_and_many_agree` there.)

use gcn_testability::gcn::pass::TILE_ROWS;
use gcn_testability::gcn::{
    recursive, CascadeSession, Gcn, GcnConfig, GraphTensors, MatrixBackend, MultiStageGcn,
};
use gcn_testability::netlist::{CellKind, Netlist, NetlistBuilder};
use gcn_testability::nn::seeded_rng;
use gcn_testability::tensor::{ops, Budget, Matrix, TensorError};

/// The benchmark's tolerance against the recursion oracle.
const ORACLE_TOLERANCE: f64 = 1e-4;

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
        // A gate left with one distinct fanin is a buffer.
        let kind = if from.len() == 1 { CellKind::Buf } else { kind };
        let cell = net.add_cell(kind);
        for f in from {
            net.connect(cells[f], cell).unwrap();
        }
        cells.push(cell);
    }
    net.build().unwrap()
}

/// `n` rows of four attributes in `(-1, 1)`.
fn features(n: usize, seed: u64) -> Matrix {
    let mut state = seed ^ 0xFEA7;
    Matrix::from_fn(n, 4, |_, _| {
        (mix(&mut state) >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    })
}

/// Untrained stages of the given depths, narrow enough to be quick.
fn stages(depths: &[usize], seed: u64) -> Vec<Gcn> {
    depths
        .iter()
        .zip(seed..)
        .map(|(&depth, seed)| {
            let cfg = GcnConfig {
                embed_dims: [6, 5, 4][..depth].to_vec(),
                fc_dims: vec![4],
                ..GcnConfig::default()
            };
            Gcn::new(&cfg, &mut seeded_rng(seed))
        })
        .collect()
}

/// One stage over every row, whole matrices at a time.
fn whole_matrix(gcn: &Gcn, t: &GraphTensors, x: &Matrix) -> Vec<f32> {
    let mut e = x.clone();
    for enc in gcn.encoders() {
        let (g, _, _) = t.aggregate(&e, gcn.w_pr(), gcn.w_su()).unwrap();
        e = ops::relu(&enc.forward(&g).unwrap());
    }
    ops::softmax_col(&gcn.head().predict(&e).unwrap(), 1)
}

/// Whether a non-final stage settles a row scored `p`.
fn filtered(p: f32, threshold: f32) -> bool {
    p < threshold
}

/// The cascade rule, node by node, over [`whole_matrix`] per stage.
fn oracle(model: &MultiStageGcn, t: &GraphTensors, x: &Matrix) -> Vec<u32> {
    let probs: Vec<Vec<f32>> = model
        .stages()
        .iter()
        .map(|gcn| whole_matrix(gcn, t, x))
        .collect();
    (0..t.node_count())
        .map(|v| {
            let mut answer = f32::NAN;
            for (s, stage) in probs.iter().enumerate() {
                answer = stage[v];
                if s + 1 < probs.len() && filtered(answer, model.filter_threshold()) {
                    answer = answer.min(0.49);
                    break;
                }
            }
            answer.to_bits()
        })
        .collect()
}

fn bits(probs: &[f32]) -> Vec<u32> {
    probs.iter().map(|p| p.to_bits()).collect()
}

/// Stage 0's median probability: as many boundary cases as a design has.
fn median_threshold(stage0: &Gcn, t: &GraphTensors, x: &Matrix) -> f32 {
    let mut p = whole_matrix(stage0, t, x);
    p.sort_by(f32::total_cmp);
    p.get(p.len() / 2).copied().unwrap_or(0.25)
}

/// One stage's tiled probabilities against both references. (Not for a
/// graph with a direction switched off: the recursion walks the stored
/// structure, which stays complete.)
fn stage_matches(gcn: &Gcn, t: &GraphTensors, x: &Matrix, what: &str) {
    let n = t.node_count();
    let got = gcn.predict_proba(t, x).unwrap();
    assert_eq!(bits(&got), bits(&whole_matrix(gcn, t, x)), "{what}");
    // The first, the last and a spread of rows through the recursion.
    let picked: Vec<usize> = (0..n)
        .step_by((n / 48).max(1))
        .chain(n.checked_sub(1))
        .collect();
    let logits = recursive::predict_nodes(gcn, t, x, &picked).unwrap();
    for (i, &v) in picked.iter().enumerate() {
        let (l0, l1) = (f64::from(logits.get(i, 0)), f64::from(logits.get(i, 1)));
        let m = l0.max(l1);
        let want = (l1 - m).exp() / ((l0 - m).exp() + (l1 - m).exp());
        assert!(
            (f64::from(got[v]) - want).abs() <= ORACLE_TOLERANCE,
            "{what}: node {v} got {} but the recursion says {want}",
            got[v]
        );
    }
}

/// Every cascade path against the whole-matrix oracle.
fn cascade_matches(model: &MultiStageGcn, t: &GraphTensors, x: &Matrix, what: &str) {
    let want = oracle(model, t, x);
    assert_eq!(bits(&model.predict_proba(t, x).unwrap()), want, "{what}");
    for mut backend in [
        MatrixBackend::serial(),
        MatrixBackend::partitioned(t, 3).unwrap(),
    ] {
        let got = model
            .predict_proba_budgeted_with(t, x, &Budget::unlimited(), &mut backend)
            .unwrap();
        assert_eq!(bits(&got), want, "{what}, {} backend", backend.label());
    }
    let session = model.open_session(t, x).unwrap();
    assert_eq!(bits(session.probs()), want, "{what}, session open");
    let caches = session.into_caches(t, x).unwrap();
    let warm = CascadeSession::from_caches(model, t, x, caches).unwrap();
    assert_eq!(bits(warm.probs()), want, "{what}, session from caches");
}

/// The four thresholds on one graph: everybody survives, the default,
/// stage 0's median, nobody survives stage 0.
fn all_thresholds_match(stages: &[Gcn], t: &GraphTensors, x: &Matrix, what: &str) {
    for thr in [0.0, 0.25, median_threshold(&stages[0], t, x), 1.5] {
        let model = MultiStageGcn::from_stages(stages.to_vec(), thr);
        cascade_matches(&model, t, x, &format!("{what}, threshold {thr}"));
    }
}

#[test]
fn designs_sized_around_a_tile_match_both_references() {
    // One node and `TILE_ROWS - 1` are tiles larger than the design.
    for n in [
        1,
        TILE_ROWS - 1,
        TILE_ROWS,
        TILE_ROWS + 1,
        3 * TILE_ROWS + 7,
    ] {
        let net = dag(n, n as u64);
        let (t, x) = (GraphTensors::from_netlist(&net), features(n, 5));
        assert_eq!(t.node_count(), n);
        for depth in 1..=3 {
            let gcn = &stages(&[depth], 40 + depth as u64)[0];
            stage_matches(gcn, &t, &x, &format!("{n} nodes, depth {depth}"));
        }
        all_thresholds_match(&stages(&[2, 3, 1], 7), &t, &x, &format!("{n} nodes"));
    }
}

#[test]
fn an_empty_design_has_no_rows_to_list() {
    let t = GraphTensors::from_netlist(&NetlistBuilder::new("empty").build().unwrap());
    let x = features(0, 1);
    let model = MultiStageGcn::from_stages(stages(&[2, 1], 3), 0.25);
    assert!(model.predict_proba(&t, &x).unwrap().is_empty());
    assert!(model.open_session(&t, &x).unwrap().probs().is_empty());
    assert!(model.stages()[0].predict_proba(&t, &x).unwrap().is_empty());
}

#[test]
fn either_direction_can_be_switched_off() {
    let n = TILE_ROWS + 1;
    let (net, x) = (dag(n, 61), features(n, 62));
    for (use_pred, use_succ) in [(true, false), (false, true)] {
        let t = GraphTensors::with_directions(&net, use_pred, use_succ);
        let what = format!("pred {use_pred}, succ {use_succ}");
        let gcn = &stages(&[3], 63)[0];
        assert_eq!(
            bits(&gcn.predict_proba(&t, &x).unwrap()),
            bits(&whole_matrix(gcn, &t, &x)),
            "{what}"
        );
        all_thresholds_match(&stages(&[2, 3, 1], 64), &t, &x, &what);
    }
}

#[test]
fn a_ten_thousand_fanout_hub() {
    let mut net = NetlistBuilder::new("hub");
    let hub = net.add_cell(CellKind::Input);
    for _ in 0..10_000 {
        let out = net.add_cell(CellKind::Output);
        net.connect(hub, out).unwrap();
    }
    let net = net.build().unwrap();
    let (t, x) = (GraphTensors::from_netlist(&net), features(10_001, 71));
    stage_matches(&stages(&[3], 72)[0], &t, &x, "hub");
    all_thresholds_match(&stages(&[2, 3, 1], 73), &t, &x, "hub");
}

#[test]
fn a_ten_thousand_deep_chain() {
    let mut net = NetlistBuilder::new("chain");
    let mut prev = net.add_cell(CellKind::Input);
    for _ in 0..10_000 {
        let buf = net.add_cell(CellKind::Buf);
        net.connect(prev, buf).unwrap();
        prev = buf;
    }
    let net = net.build().unwrap();
    let (t, x) = (GraphTensors::from_netlist(&net), features(10_001, 81));
    stage_matches(&stages(&[3], 82)[0], &t, &x, "chain");
    all_thresholds_match(&stages(&[2, 3, 1], 83), &t, &x, "chain");
}

/// What each layer of the filtered stateless pass must charge, in order:
/// stage 0's layers `n` each, a later stage's layer `d` the `(D - d)`-hop
/// halo of the rows that reached the stage — recomputed from the
/// whole-matrix per-stage probabilities and `halo_step`.
fn expected_charges(model: &MultiStageGcn, t: &GraphTensors, x: &Matrix) -> Vec<u64> {
    let mut alive: Vec<usize> = (0..t.node_count()).collect();
    let mut charges = Vec::new();
    for (s, gcn) in model.stages().iter().enumerate() {
        if alive.is_empty() {
            break;
        }
        let mut halos = vec![alive.clone()];
        for _ in 1..gcn.depth() {
            halos.push(t.halo_step(&halos[halos.len() - 1]));
        }
        charges.extend(halos.iter().rev().map(|h| h.len() as u64));
        if s + 1 < model.stages().len() {
            let probs = whole_matrix(gcn, t, x);
            alive.retain(|&v| !filtered(probs[v], model.filter_threshold()));
        }
    }
    charges
}

#[test]
fn the_budget_stops_the_pass_at_every_layer_boundary() {
    let n = TILE_ROWS + 1;
    let (t, x) = (GraphTensors::from_netlist(&dag(n, 101)), features(n, 102));
    // A seed whose stages each settle some rows and pass some on.
    let stages = stages(&[2, 3, 1], 101);
    let model = MultiStageGcn::from_stages(stages.clone(), median_threshold(&stages[0], &t, &x));
    let run = |budget: &Budget| {
        model.predict_proba_budgeted_with(&t, &x, budget, &mut MatrixBackend::serial())
    };

    let charges = expected_charges(&model, &t, &x);
    assert_eq!(charges.len(), 6, "every layer of every stage runs");
    assert_eq!(charges[..2], [n as u64; 2], "stage 0 embeds every row");
    assert!(
        charges[2..].iter().all(|&c| 0 < c && c < n as u64),
        "later stages embed a strict subset: {charges:?}"
    );
    let total: u64 = charges.iter().sum();
    let unlimited = Budget::unlimited();
    let full = run(&unlimited).unwrap();
    assert_eq!(unlimited.spent(), total);

    // One unit short of a layer's charge stops the pass before that
    // layer: the typed error, the charges so far, and no probabilities.
    let mut through = 0u64;
    for (layer, &charge) in charges.iter().enumerate() {
        through += charge;
        let budget = Budget::with_cap(through - 1);
        match run(&budget) {
            Err(TensorError::BudgetExceeded { spent, cap }) => {
                assert_eq!((spent, cap), (through, through - 1), "layer {layer}");
            }
            other => panic!("layer {layer}: expected a budget stop, got {other:?}"),
        }
        assert_eq!(budget.spent(), through, "layer {layer}");
    }
    // Exactly enough is enough.
    let exact = Budget::with_cap(total);
    assert_eq!(bits(&run(&exact).unwrap()), bits(&full));
    assert_eq!(exact.spent(), total);

    // A session open charges what the filtered pass does, layer by
    // layer: stage 0 on every row, a later stage on its halo.
    let open = |budget: &Budget| {
        CascadeSession::for_cascade_budgeted_with(
            &model,
            &t,
            &x,
            0,
            budget,
            &mut MatrixBackend::serial(),
        )
    };
    let mut through = 0u64;
    for (layer, &charge) in charges.iter().enumerate() {
        through += charge;
        assert!(
            matches!(open(&Budget::with_cap(through - 1)), Err(TensorError::BudgetExceeded { spent, .. })
                if spent == through),
            "session open, layer {layer}"
        );
    }
    let exact = Budget::with_cap(total);
    assert_eq!(bits(open(&exact).unwrap().probs()), bits(&full));
    assert_eq!(exact.spent(), total);
}

#[test]
fn a_stale_partitioning_is_still_refused() {
    let n = 300;
    let mut net = dag(n, 111);
    let mut t = GraphTensors::from_netlist(&net);
    let mut x = features(n, 112);
    let model = MultiStageGcn::from_stages(stages(&[2, 1], 113), 0.25);
    let mut backend = MatrixBackend::partitioned(&t, 3).unwrap();
    let target = net
        .nodes()
        .find(|&v| net.kind(v) != CellKind::Output)
        .unwrap();
    let op = net.insert_observation_point(target).unwrap();
    t.insert_observation_point(target, op).unwrap();
    x.push_row(&[0.0, 1.0, 1.0, 0.0]).unwrap();
    let stale = |r: Result<Vec<f32>, TensorError>| matches!(r, Err(TensorError::StaleCache { .. }));
    assert!(stale(model.predict_proba_budgeted_with(
        &t,
        &x,
        &Budget::unlimited(),
        &mut backend
    )));
    let gcn = &model.stages()[0];
    assert!(stale(gcn.predict_proba_budgeted_with(
        &t,
        &x,
        &Budget::unlimited(),
        &mut backend
    )));
    assert!(matches!(
        CascadeSession::for_cascade_budgeted_with(
            &model,
            &t,
            &x,
            0,
            &Budget::unlimited(),
            &mut backend
        ),
        Err(TensorError::StaleCache { .. })
    ));
}
