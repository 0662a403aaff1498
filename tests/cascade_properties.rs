//! The filtered cascade against an oracle that shares no code with it.
//!
//! `MultiStageGcn::predict_proba*` and `CascadeSession` run later stages
//! only on the rows earlier stages passed on (a backward halo of
//! embeddings in the stateless pass, survivor-only heads in a session),
//! all through one row-set stepper. The reference here is written from the
//! definition instead: every stage's `Gcn::predict_proba` over *every*
//! row, then the per-node rule — the first non-final stage below the
//! threshold answers `min(p, 0.49)`, else the last stage's `p`. Every path
//! must match it bit for bit, on random DAGs, on degenerate designs, under
//! a session maintained across insertions that push rows over the
//! threshold both ways, and with the budget charged exactly the rows the
//! filter computes. A session's preview (`CascadeSession::probs_after`) is
//! held to a refresh of the same dirty rows. The rows a session computes —
//! opening, refreshing, previewing, growing a later stage — are held to
//! [`Held`], a model of which rows each stage caches written from the halo
//! definition.

use proptest::prelude::*;

use gcn_testability::gcn::features::squash;
use gcn_testability::gcn::{
    CascadeSession, Gcn, GcnConfig, GraphData, GraphTensors, MatrixBackend, MultiStageGcn,
};
use gcn_testability::netlist::{
    generate, CellKind, GeneratorConfig, Netlist, NetlistBuilder, Scoap,
};
use gcn_testability::nn::seeded_rng;
use gcn_testability::obs::catalog::counters;
use gcn_testability::tensor::{Budget, Matrix, TensorError};

/// Held by every test that refreshes or previews a session, which adds to
/// the process-wide row counters, while
/// `session_stays_exact_while_rows_cross_the_threshold` reads them.
static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn counters_lock() -> std::sync::MutexGuard<'static, ()> {
    COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Strategy: a small random DAG netlist (same construction as
/// `tests/properties.rs`).
fn arb_netlist() -> impl Strategy<Value = Netlist> {
    (2usize..12, 5usize..60, any::<u64>()).prop_map(|(inputs, gates, seed)| {
        let cfg = GeneratorConfig {
            inputs,
            gates,
            seed,
            shadow_regions: 0,
            ..GeneratorConfig::default()
        };
        generate(&cfg)
    })
}

/// Untrained stages of the given depths, narrow enough to be quick.
fn stages(depths: &[usize], seed: u64) -> Vec<Gcn> {
    depths
        .iter()
        .enumerate()
        .map(|(s, &depth)| {
            let cfg = GcnConfig {
                embed_dims: [6, 5, 4][..depth].to_vec(),
                fc_dims: vec![4],
                ..GcnConfig::default()
            };
            Gcn::new(&cfg, &mut seeded_rng(seed.wrapping_add(s as u64)))
        })
        .collect()
}

/// The four thresholds of the issue, by index: everybody survives, the
/// default, stage 0's median (as many boundary cases as a design can
/// have), nobody survives stage 0.
fn threshold(which: usize, stage0: &Gcn, t: &GraphTensors, x: &Matrix) -> f32 {
    match which {
        0 => 0.0,
        1 => 0.25,
        2 => {
            let mut p = stage0.predict_proba(t, x).unwrap();
            p.sort_by(f32::total_cmp);
            p[p.len() / 2]
        }
        _ => 1.5,
    }
}

/// Every stage over every row.
fn per_stage(model: &MultiStageGcn, t: &GraphTensors, x: &Matrix) -> Vec<Vec<f32>> {
    model
        .stages()
        .iter()
        .map(|gcn| gcn.predict_proba(t, x).unwrap())
        .collect()
}

/// The cascade rule, node by node, over [`per_stage`].
fn oracle(model: &MultiStageGcn, t: &GraphTensors, x: &Matrix) -> Vec<u32> {
    let probs = per_stage(model, t, x);
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

/// Whether a non-final stage settles a row scored `p` (a NaN is passed on).
fn filtered(p: f32, threshold: f32) -> bool {
    p < threshold
}

fn bits(probs: &[f32]) -> Vec<u32> {
    probs.iter().map(|p| p.to_bits()).collect()
}

/// Every inference path against the oracle. The partitioned backend
/// ignores a direction ablation by design, so it is skipped for one.
fn all_paths_match(
    model: &MultiStageGcn,
    t: &GraphTensors,
    x: &Matrix,
    partitioned: bool,
) -> Result<(), String> {
    let want = oracle(model, t, x);
    let check = |path: &str, got: &[f32]| {
        if bits(got) == want {
            Ok(())
        } else {
            Err(format!(
                "{path} differs from the oracle at threshold {}",
                model.filter_threshold()
            ))
        }
    };
    let err = |e: TensorError| e.to_string();
    check("predict_proba", &model.predict_proba(t, x).map_err(err)?)?;
    let mut backends = vec![("serial", MatrixBackend::serial())];
    if partitioned {
        backends.push((
            "partitioned",
            MatrixBackend::partitioned(t, 3).map_err(err)?,
        ));
    }
    for (label, mut backend) in backends {
        let got = model
            .predict_proba_budgeted_with(t, x, &Budget::unlimited(), &mut backend)
            .map_err(err)?;
        check(label, &got)?;
    }
    let session = model.open_session(t, x).map_err(err)?;
    check("open_session", session.probs())?;
    let caches = session.into_caches(t, x).map_err(err)?;
    let warm = CascadeSession::from_caches(model, t, x, caches).map_err(err)?;
    check("from_caches", warm.probs())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Filtered ≡ unfiltered, bit for bit, through every path: 1–4
    /// stages of depth 1–3, all four thresholds on each design.
    #[test]
    fn filtered_cascade_is_bitwise_the_unfiltered_oracle(
        net in arb_netlist(),
        depths in proptest::collection::vec(1usize..4, 1..5),
        seed in any::<u64>(),
    ) {
        let data = GraphData::from_netlist(&net, None).unwrap();
        let (t, x) = (&data.tensors, &data.features);
        let stages = stages(&depths, seed);
        for which in 0..4 {
            let thr = threshold(which, &stages[0], t, x);
            let model = MultiStageGcn::from_stages(stages.clone(), thr);
            prop_assert_eq!(all_paths_match(&model, t, x, true), Ok(()));
        }
    }

    /// The same with one aggregation direction switched off: the backward
    /// halo still walks both directions (a superset), the kernels skip one.
    #[test]
    fn direction_ablated_cascade_matches_the_oracle(
        net in arb_netlist(),
        seed in any::<u64>(),
        use_pred in any::<bool>(),
    ) {
        let data = GraphData::from_netlist(&net, None).unwrap();
        let t = GraphTensors::with_directions(&net, use_pred, !use_pred);
        let stages = stages(&[2, 3, 1], seed);
        let thr = threshold(2, &stages[0], &t, &data.features);
        let model = MultiStageGcn::from_stages(stages, thr);
        prop_assert_eq!(all_paths_match(&model, &t, &data.features, false), Ok(()));
    }
}

/// Every cached layer's bits, completed, the probabilities' bits and the
/// rows held: the whole state a session serves between calls on graph `t`
/// and features `x`.
fn session_bits(
    session: &CascadeSession<'_>,
    t: &GraphTensors,
    x: &Matrix,
) -> (Vec<Vec<u32>>, Vec<u32>, u64) {
    let layers = session
        .clone()
        .into_caches(t, x)
        .unwrap()
        .iter()
        .flat_map(|c| {
            c.layers()
                .iter()
                .map(|m| bits(m.as_slice()))
                .collect::<Vec<_>>()
        })
        .collect();
    (layers, bits(session.probs()), session.cached_rows())
}

/// Membership of the dirty halos `H_0..H_depth` (`H_0 = dirty`,
/// `H_d = halo_step(H_{d-1})`), one flag per node and hop.
fn halo_flags(t: &GraphTensors, dirty: &[usize], depth: usize) -> Vec<Vec<bool>> {
    let n = t.node_count();
    let mut flags = vec![vec![false; n]; depth + 1];
    for &r in dirty {
        flags[0][r] = true;
    }
    for d in 1..=depth {
        let below: Vec<usize> = (0..n).filter(|&v| flags[d - 1][v]).collect();
        for v in t.halo_step(&below) {
            flags[d][v] = true;
        }
    }
    flags
}

/// Which rows each stage of a session holds, written from the definition
/// with per-stage probabilities over every row and `halo_step` alone:
/// `rows[s][d][v]` says whether stage `s` caches row `v` of layer `d`
/// (`E_{d+1}`), which changes when the features in `H_{d+1}` do. What a
/// session holds depends only on the graph and the features, never on the
/// calls that led there. Each method applies one session call and returns
/// the embedding rows the call must compute.
#[derive(Clone, PartialEq, Debug)]
struct Held {
    rows: Vec<Vec<Vec<bool>>>,
}

impl Held {
    /// What a session holds on graph `t` with features `x`: stage 0 every
    /// row; a later stage of depth `D`, in layer `d`, the
    /// `(D - 1 - d)`-hop halo of the rows that reach it. An open computes
    /// all of it.
    fn opened(model: &MultiStageGcn, t: &GraphTensors, x: &Matrix) -> (Self, u64) {
        let n = t.node_count();
        let probs = per_stage(model, t, x);
        let mut reach: Vec<usize> = (0..n).collect();
        let mut rows = Vec::new();
        for (s, gcn) in model.stages().iter().enumerate() {
            let mut layers = vec![vec![false; n]; gcn.depth()];
            let mut need = reach.clone();
            for d in (0..gcn.depth()).rev() {
                for &v in &need {
                    layers[d][v] = true;
                }
                need = t.halo_step(&need);
            }
            rows.push(layers);
            reach.retain(|&v| !filtered(probs[s][v], model.filter_threshold()));
        }
        let held = Held { rows };
        let count = held.count();
        (held, count)
    }

    /// Rows held, summed over stages and layers.
    fn count(&self) -> u64 {
        self.rows.iter().flatten().flatten().filter(|&&f| f).count() as u64
    }

    /// A preview of `rows` with the feature rows `dirty` changed to `x`:
    /// a stage's target is a row of the deepest halo no earlier stage
    /// filtered; each target is walked back one `halo_step` at a time,
    /// keeping only the rows in the layer's halo or not held, and the walks
    /// are united per layer. Nothing is kept.
    fn preview(
        &self,
        model: &MultiStageGcn,
        t: &GraphTensors,
        x: &Matrix,
        dirty: &[usize],
        rows: &[usize],
    ) -> u64 {
        let deepest = model.stages().iter().map(Gcn::depth).max().unwrap_or(0);
        let halo = halo_flags(t, dirty, deepest);
        let probs = per_stage(model, t, x);
        let mut alive: Vec<usize> = rows.iter().copied().filter(|&r| halo[deepest][r]).collect();
        alive.sort_unstable();
        alive.dedup();
        let mut total = 0u64;
        for (s, held) in self.rows.iter().enumerate() {
            let stale = |d: usize, v: usize| halo[d + 1][v] || !held[d][v];
            let depth = held.len();
            let mut union = vec![std::collections::BTreeSet::new(); depth];
            for &target in alive.iter().filter(|&&v| stale(depth - 1, v)) {
                let mut walk = vec![target];
                for d in (0..depth).rev() {
                    union[d].extend(walk.iter().copied());
                    walk = t.halo_step(&walk);
                    walk.retain(|&v| d > 0 && stale(d - 1, v));
                }
            }
            total += union.iter().map(|u| u.len() as u64).sum::<u64>();
            alive.retain(|&v| !filtered(probs[s][v], model.filter_threshold()));
        }
        total
    }

    /// A refresh with the feature rows `dirty` changed to `x`: afterwards
    /// the session holds what an open on the new state would, having
    /// recomputed the rows it held before and still holds inside their
    /// layer's halo, and computed the rows it did not hold. Returns that
    /// count and what was held before, which a revert restores.
    fn refresh(
        &mut self,
        model: &MultiStageGcn,
        t: &GraphTensors,
        x: &Matrix,
        dirty: &[usize],
    ) -> (u64, Held) {
        let deepest = model.stages().iter().map(Gcn::depth).max().unwrap_or(0);
        let halo = halo_flags(t, dirty, deepest);
        let (after, _) = Held::opened(model, t, x);
        let mut total = 0u64;
        for (layers, kept) in self.rows.iter().zip(&after.rows) {
            for (d, (held, kept)) in layers.iter().zip(kept).enumerate() {
                let computed = (0..held.len()).filter(|&v| kept[v] && (!held[v] || halo[d + 1][v]));
                total += computed.count() as u64;
            }
        }
        (total, std::mem::replace(self, after))
    }

    /// An insertion adopted: the new rows are not held.
    fn sync(&mut self, t: &GraphTensors) {
        for held in self.rows.iter_mut().flatten() {
            held.resize(t.node_count(), false);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A preview reads what a refresh would, bit for bit, computes only
    /// the rows its answer reads, and leaves the session as it found it —
    /// also when the budget stops it part-way: random designs, 1–3 stages
    /// of mixed depth, thresholds 0 / 0.25 / 1, random dirty sets, and row
    /// sets that are empty, every row, outside the halo, or repeated and
    /// unsorted.
    #[test]
    fn a_preview_reads_what_a_refresh_would_and_keeps_nothing(
        net in arb_netlist(),
        depths in proptest::collection::vec(1usize..4, 1..4),
        seed in any::<u64>(),
        which in 0usize..3,
        dirty in proptest::collection::vec(any::<usize>(), 1..6),
        picks in proptest::collection::vec(any::<usize>(), 1..12),
        stop in 0.0f64..1.0,
    ) {
        let _counters = counters_lock();
        let data = GraphData::from_netlist(&net, None).unwrap();
        let (t, n) = (&data.tensors, data.tensors.node_count());
        let thr = [0.0, 0.25, 1.0][which];
        let model = MultiStageGcn::from_stages(stages(&depths, seed), thr);
        let base = &data.features;
        let mut session = model.open_session(t, base).unwrap();
        let (held, _) = Held::opened(&model, t, base);
        let kept = session_bits(&session, t, base);

        let dirty: Vec<usize> = dirty.iter().map(|&r| r % n).collect();
        let mut x = data.features.clone();
        for &r in &dirty {
            x.set(r, 3, x.get(r, 3) - 0.75);
        }
        let deepest = depths.iter().copied().max().unwrap_or(0);
        let halo = halo_flags(t, &dirty, deepest);
        let mut picked: Vec<usize> = picks.iter().map(|&r| r % n).collect();
        picked.extend(picked.clone().iter().rev());
        let row_sets = [
            ("empty", Vec::new()),
            ("every row", (0..n).collect()),
            ("outside the halo", (0..n).filter(|&v| !halo[deepest][v]).collect()),
            ("repeated, unsorted", picked),
        ];

        let mut refreshed = session.clone();
        let delta = refreshed.refresh(t, &x, &dirty).unwrap();
        prop_assert_eq!(bits(refreshed.probs()), oracle(&model, t, &x));
        for (label, rows) in &row_sets {
            let (got, computed) = session
                .probs_after(t, &x, &dirty, rows, &Budget::unlimited())
                .unwrap();
            let want: Vec<f32> = rows.iter().map(|&r| refreshed.probs()[r]).collect();
            prop_assert_eq!(bits(&got), bits(&want), "{}: probabilities", label);
            prop_assert!(session_bits(&session, t, base) == kept, "{}: session changed", label);
            prop_assert!(computed <= delta.rows_computed(), "{}: {} > {}", label, computed, delta.rows_computed());
            prop_assert_eq!(computed, held.preview(&model, t, &x, &dirty, rows), "{}: rows computed", label);

            let cap = (computed as f64 * stop) as u64;
            if cap < computed {
                let stopped = session.probs_after(t, &x, &dirty, rows, &Budget::with_cap(cap));
                prop_assert!(
                    matches!(stopped, Err(TensorError::BudgetExceeded { .. })),
                    "{}: a budget of {} for {} rows", label, cap, computed
                );
                prop_assert!(session_bits(&session, t, base) == kept, "{}: session changed by a stop", label);
            }
        }
    }
}

/// All four thresholds on one hand-built design.
fn assert_design_matches(net: &Netlist) {
    let data = GraphData::from_netlist(net, None).unwrap();
    let (t, x) = (&data.tensors, &data.features);
    let stages = stages(&[2, 3, 1], 77);
    for which in 0..4 {
        let model = MultiStageGcn::from_stages(stages.clone(), threshold(which, &stages[0], t, x));
        all_paths_match(&model, t, x, true).unwrap_or_else(|e| panic!("{}: {e}", net.name()));
    }
}

#[test]
fn a_single_node_design() {
    let mut net = NetlistBuilder::new("one-input");
    net.add_cell(CellKind::Input);
    let net = net.build().unwrap();
    assert_design_matches(&net);
}

/// Disjoint input → output wires: no survivor's halo meets another's.
#[test]
fn survivors_with_no_edges_between_them() {
    let mut net = NetlistBuilder::new("wires");
    for _ in 0..64 {
        let a = net.add_cell(CellKind::Input);
        let y = net.add_cell(CellKind::Output);
        net.connect(a, y).unwrap();
    }
    let net = net.build().unwrap();
    assert_design_matches(&net);
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
    let out = net.add_cell(CellKind::Output);
    net.connect(prev, out).unwrap();
    let net = net.build().unwrap();
    assert_design_matches(&net);
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
    assert_design_matches(&net);
}

/// A 300-node design and a three-stage cascade whose threshold is stage
/// 0's median, so insertions keep pushing rows over it.
fn crossing_fixture() -> (Netlist, GraphData, MultiStageGcn) {
    let net = generate(&GeneratorConfig::sized("crossing", 29, 300));
    let data = GraphData::from_netlist(&net, None).unwrap();
    let stages = stages(&[2, 2, 1], 411);
    let thr = threshold(2, &stages[0], &data.tensors, &data.features);
    (net, data, MultiStageGcn::from_stages(stages, thr))
}

/// A session maintained over insertions, the way the flow maintains it
/// (`tests/api_surface.rs`): exact after every step, with rows crossing
/// the threshold in both directions, previews that keep nothing, and the
/// work accounting `Held` counts.
#[test]
fn session_stays_exact_while_rows_cross_the_threshold() {
    let _counters = counters_lock();
    let (mut net, data, model) = crossing_fixture();
    let thr = model.filter_threshold();
    let (mut t, mut x) = (data.tensors.clone(), data.features.clone());
    let mut scoap = Scoap::compute(&net).unwrap();
    let mut session = model.open_session(&t, &x).unwrap();
    assert_eq!(bits(session.probs()), oracle(&model, &t, &x));
    let (mut held, opened) = Held::opened(&model, &t, &x);
    assert_eq!(session.cached_rows(), opened);

    let obs = gcn_testability::obs::global();
    obs.enable();
    let counted = [
        counters::CORE_INCR_ROWS_COMPUTED,
        counters::CORE_INCR_ROWS_REUSED,
    ];
    let before = counted.map(|id| obs.counter(id));

    let (mut rose, mut fell) = (0usize, 0usize);
    let mut accounting = Vec::new();
    let (mut held_computed, mut held_reused) = (0u64, 0u64);
    let mut note = |rows: u64, full: u64| {
        held_computed += rows;
        held_reused += full - rows;
    };
    for step in 0..10 {
        // Preview: perturb a few rows, look at every row, put the
        // features back.
        let kept = bits(session.probs());
        let n = t.node_count();
        let peek: Vec<usize> = (0..3).map(|k| (step * 37 + k * 11) % n).collect();
        let saved: Vec<f32> = peek.iter().map(|&r| x.get(r, 3)).collect();
        for &r in &peek {
            x.set(r, 3, x.get(r, 3) - 0.75);
        }
        let every: Vec<usize> = (0..n).collect();
        let (seen, rows) = session
            .probs_after(&t, &x, &peek, &every, &Budget::unlimited())
            .unwrap();
        assert_eq!(bits(&seen), oracle(&model, &t, &x), "preview {step}");
        assert_eq!(
            rows,
            held.preview(&model, &t, &x, &peek, &every),
            "preview {step}: rows computed"
        );
        note(rows, session.full_rows(n));
        for (&r, &v) in peek.iter().zip(&saved) {
            x.set(r, 3, v);
        }
        assert_eq!(bits(session.probs()), kept, "preview {step} kept");
        assert_eq!(session.cached_rows(), held.count(), "preview {step} kept");

        // Commit: a different dirty set, straight after the preview.
        let stage0_before = model.stages()[0].predict_proba(&t, &x).unwrap();
        let target = net
            .nodes()
            .filter(|&v| scoap.co(v) > 0 && net.fanin_cone(v, 8).len() >= 3)
            .max_by_key(|&v| (scoap.co(v), v.index()))
            .expect("an unobserved internal node is left");
        let op = net.insert_observation_point(target).unwrap();
        t.insert_observation_point(target, op).unwrap();
        let mut dirty = vec![target.index(), op.index()];
        for v in scoap.observe(&net, target, op) {
            let cell = data.normalizer.normalize_cell(3, squash(scoap.co(v)));
            x.set(v.index(), 3, cell);
            dirty.push(v.index());
        }
        x.push_row(&data.normalizer.observation_point_row())
            .unwrap();
        session.sync_nodes(&t);
        held.sync(&t);
        let delta = session.refresh(&t, &x, &dirty).unwrap();
        assert_eq!(
            bits(session.probs()),
            bits(&model.predict_proba(&t, &x).unwrap()),
            "step {step}"
        );
        assert_eq!(bits(session.probs()), oracle(&model, &t, &x), "step {step}");
        let (rows, _) = held.refresh(&model, &t, &x, &dirty);
        assert_eq!(delta.rows_computed(), rows, "step {step}: rows computed");
        note(rows, delta.rows_full_equivalent());
        accounting.push((delta.rows_computed(), delta.rows_full_equivalent()));

        let stage0_after = model.stages()[0].predict_proba(&t, &x).unwrap();
        for (b, a) in stage0_before.iter().zip(&stage0_after) {
            rose += usize::from(filtered(*b, thr) && !filtered(*a, thr));
            fell += usize::from(!filtered(*b, thr) && filtered(*a, thr));
        }
    }
    assert!(
        rose > 0 && fell > 0,
        "the scenario must move rows over the threshold both ways \
         ({rose} filtered -> surviving, {fell} surviving -> filtered)"
    );

    // What a refresh computes and reports is `Held`'s count, and the
    // counters add up every refresh's.
    let [computed, reused] = {
        let after = counted.map(|id| obs.counter(id));
        [after[0] - before[0], after[1] - before[1]]
    };
    assert_eq!((computed, reused), (held_computed, held_reused));
    assert_eq!(accounting, PARENT_ACCOUNTING);
    assert_eq!((computed, reused), PARENT_COUNTERS);
}

/// `(rows_computed, rows_full_equivalent)` of the ten committed refreshes
/// above, and the `gcnt_core_incr_rows_{computed,reused}_total` deltas
/// over all twenty refreshes, recorded when sessions began caching later
/// stages only where their heads read; each equals `Held`'s count.
const PARENT_ACCOUNTING: [(u64, u64); 10] = [
    (41, 1640),
    (26, 1645),
    (50, 1650),
    (20, 1655),
    (76, 1660),
    (52, 1665),
    (15, 1670),
    (25, 1675),
    (26, 1680),
    (27, 1685),
];
const PARENT_COUNTERS: (u64, u64) = (1174, 32026);

/// What the filtered stateless pass must charge: stage 0 over every row,
/// each later stage's layer `d` over the `(D - d)`-hop halo of the rows
/// that reached the stage — recomputed from the unfiltered per-stage
/// probabilities and `halo_step`.
fn expected_charge(model: &MultiStageGcn, t: &GraphTensors, x: &Matrix) -> u64 {
    let probs = per_stage(model, t, x);
    let mut alive: Vec<usize> = (0..t.node_count()).collect();
    let mut total = 0u64;
    for (s, gcn) in model.stages().iter().enumerate() {
        if alive.is_empty() {
            break;
        }
        if s == 0 {
            total += (gcn.depth() * t.node_count()) as u64;
        } else {
            let mut needed = alive.clone();
            for _ in 0..gcn.depth() {
                total += needed.len() as u64;
                needed = t.halo_step(&needed);
            }
        }
        alive.retain(|&v| !filtered(probs[s][v], model.filter_threshold()));
    }
    total
}

#[test]
fn the_budget_is_charged_the_rows_the_filter_computes() {
    let (_, data, model) = crossing_fixture();
    let (t, x) = (&data.tensors, &data.features);
    let n = t.node_count() as u64;
    let run = |model: &MultiStageGcn, budget: &Budget| {
        model.predict_proba_budgeted_with(t, x, budget, &mut MatrixBackend::serial())
    };

    let expected = expected_charge(&model, t, x);
    let everything = model.stages().iter().map(|g| g.depth() as u64).sum::<u64>() * n;
    let stage0 = model.stages()[0].depth() as u64 * n;
    assert!(
        stage0 < expected && expected < everything,
        "{stage0} < {expected} < {everything}: the fixture filters some rows, not all"
    );
    let unlimited = Budget::unlimited();
    let full = run(&model, &unlimited).unwrap();
    assert_eq!(unlimited.spent(), expected);

    // Exactly enough is enough; one unit less stops a later stage, and
    // the caller gets the error, not the rows settled so far.
    let exact = Budget::with_cap(expected);
    assert_eq!(bits(&run(&model, &exact).unwrap()), bits(&full));
    assert_eq!(exact.spent(), expected);
    assert!(matches!(
        run(&model, &Budget::with_cap(expected - 1)),
        Err(TensorError::BudgetExceeded { cap, .. }) if cap == expected - 1
    ));
    assert!(matches!(
        run(&model, &Budget::with_cap(stage0 + 1)),
        Err(TensorError::BudgetExceeded { .. })
    ));

    // Nobody survives stage 0: later stages do not run, or charge.
    let nobody = MultiStageGcn::from_stages(model.stages().to_vec(), 1.5);
    assert_eq!(expected_charge(&nobody, t, x), stage0);
    let budget = Budget::with_cap(stage0);
    run(&nobody, &budget).unwrap();
    assert_eq!(budget.spent(), stage0);
    assert!(matches!(
        run(&nobody, &Budget::with_cap(stage0 - 1)),
        Err(TensorError::BudgetExceeded { .. })
    ));

    // Everybody survives: the halos are the whole graph unless a node is
    // isolated, so the charge is bounded by — here equal to — a full pass.
    let everybody = MultiStageGcn::from_stages(model.stages().to_vec(), 0.0);
    let budget = Budget::unlimited();
    run(&everybody, &budget).unwrap();
    assert_eq!(budget.spent(), expected_charge(&everybody, t, x));
    assert_eq!(budget.spent(), everything);
}

/// Moves the observability feature of each row of `rows` by ±1.5, the
/// sign from the matching pick's parity, so rows cross the threshold both
/// ways. Returns the old values, in order.
fn perturb(x: &mut Matrix, rows: &[usize], picks: &[usize]) -> Vec<f32> {
    let mut saved = Vec::with_capacity(rows.len());
    for (&r, &p) in rows.iter().zip(picks) {
        saved.push(x.get(r, 3));
        x.set(r, 3, x.get(r, 3) + if p % 2 == 0 { 1.5 } else { -1.5 });
    }
    saved
}

/// Undoes [`perturb`], the last row first.
fn restore(x: &mut Matrix, rows: &[usize], saved: &[f32]) {
    for (&r, &v) in rows.iter().zip(saved).rev() {
        x.set(r, 3, v);
    }
}

/// Inserts an observation point at the `pick`-th node the flow could
/// observe, the way the flow commits one: netlist, tensors, SCOAP-changed
/// feature rows and the new node's row. Returns the dirty rows, or `None`
/// if no node is left to observe.
fn commit(
    net: &mut Netlist,
    t: &mut GraphTensors,
    x: &mut Matrix,
    scoap: &mut Scoap,
    data: &GraphData,
    pick: usize,
) -> Option<Vec<usize>> {
    let observable =
        |v: &_| scoap.co(*v) > 0 && !matches!(net.kind(*v), CellKind::Output | CellKind::Dff);
    let count = net.nodes().filter(observable).count();
    let target = net.nodes().filter(observable).nth(pick % count.max(1))?;
    let op = net.insert_observation_point(target).unwrap();
    t.insert_observation_point(target, op).unwrap();
    let mut dirty = vec![target.index(), op.index()];
    for v in scoap.observe(net, target, op) {
        let cell = data.normalizer.normalize_cell(3, squash(scoap.co(v)));
        x.set(v.index(), 3, cell);
        dirty.push(v.index());
    }
    x.push_row(&data.normalizer.observation_point_row())
        .unwrap();
    Some(dirty)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// A 2–3-stage session driven through random refreshes, refreshes
    /// back to the features before one, previews and committed insertions
    /// serves the oracle's bits after every step and computes exactly the
    /// rows [`Held`] counts. Stage 0's median as the threshold and changes
    /// of either sign move rows across it both ways.
    #[test]
    fn a_session_driven_at_random_stays_the_oracle(
        net in arb_netlist(),
        depths in proptest::collection::vec(1usize..4, 2..4),
        seed in any::<u64>(),
        steps in proptest::collection::vec(
            (0usize..4, proptest::collection::vec(any::<usize>(), 1..5)),
            1..12,
        ),
    ) {
        let _counters = counters_lock();
        let mut net = net;
        let data = GraphData::from_netlist(&net, None).unwrap();
        let (mut t, mut x) = (data.tensors.clone(), data.features.clone());
        let mut scoap = Scoap::compute(&net).unwrap();
        let stages = stages(&depths, seed);
        let thr = threshold(2, &stages[0], &t, &x);
        let model = MultiStageGcn::from_stages(stages, thr);
        let mut session = model.open_session(&t, &x).unwrap();
        let (mut held, opened) = Held::opened(&model, &t, &x);
        prop_assert_eq!(session.cached_rows(), opened);
        // Refreshes a refresh back may still return from, the newest last.
        let mut undo: Vec<(Vec<usize>, Vec<f32>, Held)> = Vec::new();
        for (step, (kind, picks)) in steps.iter().enumerate() {
            let n = t.node_count();
            let dirty: Vec<usize> = picks.iter().map(|&p| p % n).collect();
            match kind {
                0 => {
                    let saved = perturb(&mut x, &dirty, picks);
                    let delta = session.refresh(&t, &x, &dirty).unwrap();
                    let (rows, before) = held.refresh(&model, &t, &x, &dirty);
                    prop_assert_eq!(delta.rows_computed(), rows, "step {}: refresh", step);
                    undo.push((dirty, saved, before));
                }
                1 => {
                    if let Some((dirty, saved, before)) = undo.pop() {
                        restore(&mut x, &dirty, &saved);
                        let delta = session.refresh(&t, &x, &dirty).unwrap();
                        let (rows, _) = held.refresh(&model, &t, &x, &dirty);
                        prop_assert_eq!(delta.rows_computed(), rows, "step {}: back", step);
                        prop_assert!(held == before, "step {}: back holds what it held", step);
                    }
                }
                2 => {
                    let saved = perturb(&mut x, &dirty, picks);
                    let every: Vec<usize> = (0..n).collect();
                    let (got, computed) = session
                        .probs_after(&t, &x, &dirty, &every, &Budget::unlimited())
                        .unwrap();
                    prop_assert_eq!(bits(&got), oracle(&model, &t, &x), "step {}: preview", step);
                    let want = held.preview(&model, &t, &x, &dirty, &every);
                    prop_assert_eq!(computed, want, "step {}: preview rows", step);
                    restore(&mut x, &dirty, &saved);
                }
                _ => {
                    // A commit keeps every refresh before it.
                    undo.clear();
                    let Some(dirty) = commit(&mut net, &mut t, &mut x, &mut scoap, &data, picks[0])
                    else {
                        continue;
                    };
                    session.sync_nodes(&t);
                    held.sync(&t);
                    let delta = session.refresh(&t, &x, &dirty).unwrap();
                    let (rows, _) = held.refresh(&model, &t, &x, &dirty);
                    prop_assert_eq!(delta.rows_computed(), rows, "step {}: commit", step);
                }
            }
            prop_assert_eq!(bits(session.probs()), oracle(&model, &t, &x), "step {}", step);
            prop_assert_eq!(session.cached_rows(), held.count(), "step {}: rows held", step);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A refresh the budget stops part-way rolls back inside the call: for
    /// every cap below its full charge, `probs()` and `cached_rows()` stay
    /// bitwise as before, and the next unlimited refresh serves the
    /// oracle, computes what [`Held`] counts and charges exactly that. A
    /// stage that forgets the rows no longer reaching it is rolled back
    /// when a later stage stops, so those rows must be held again.
    #[test]
    fn a_refresh_stopped_at_any_cap_leaves_the_session_as_it_was(
        net in arb_netlist(),
        depths in proptest::collection::vec(1usize..4, 2..4),
        seed in any::<u64>(),
        steps in proptest::collection::vec(proptest::collection::vec(any::<usize>(), 1..5), 1..4),
    ) {
        let _counters = counters_lock();
        let data = GraphData::from_netlist(&net, None).unwrap();
        let (t, n) = (&data.tensors, data.tensors.node_count());
        let mut x = data.features.clone();
        let stages = stages(&depths, seed);
        let thr = threshold(2, &stages[0], t, &x);
        let model = MultiStageGcn::from_stages(stages, thr);
        let mut session = model.open_session(t, &x).unwrap();
        let (mut held, _) = Held::opened(&model, t, &x);
        for (step, picks) in steps.iter().enumerate() {
            let dirty: Vec<usize> = picks.iter().map(|&p| p % n).collect();
            perturb(&mut x, &dirty, picks);
            let charge = {
                let budget = Budget::unlimited();
                session.clone().refresh_budgeted(t, &x, &dirty, &budget).unwrap();
                budget.spent()
            };
            let before = (bits(session.probs()), session.cached_rows());
            for cap in 0..charge {
                let stopped = session.refresh_budgeted(t, &x, &dirty, &Budget::with_cap(cap));
                prop_assert!(
                    matches!(stopped, Err(TensorError::BudgetExceeded { .. })),
                    "step {}: a cap of {} for a charge of {}", step, cap, charge
                );
                let after = (bits(session.probs()), session.cached_rows());
                prop_assert!(after == before, "step {}: a stop at {} of {} changed the session", step, cap, charge);
            }
            let delta = session.refresh(t, &x, &dirty).unwrap();
            let (rows, _) = held.refresh(&model, t, &x, &dirty);
            prop_assert_eq!(delta.rows_computed(), rows, "step {}: rows computed", step);
            prop_assert_eq!(delta.rows_computed(), charge, "step {}: charge", step);
            prop_assert_eq!(bits(session.probs()), oracle(&model, t, &x), "step {}", step);
        }
    }
}
