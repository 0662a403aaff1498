//! Property-based tests (proptest) over the core data structures and the
//! invariants the paper's pipeline depends on.

use proptest::prelude::*;

use gcn_testability::dft::atpg::{run_random_atpg, AtpgConfig};
use gcn_testability::dft::flow::{run_gcn_opi, FlowConfig};
use gcn_testability::gcn::{recursive, Gcn, GcnConfig, GraphData, GraphTensors};
use gcn_testability::lint::{lint_csr, lint_graph_tensors, lint_netlist, lint_violations, RuleId};
use gcn_testability::netlist::{
    format, generate, logic_levels, CellKind, GeneratorConfig, Netlist, NetlistBuilder,
    NetlistError, NodeId, Scoap, Violation, SCOAP_INF,
};
use gcn_testability::nn::seeded_rng;
use gcn_testability::tensor::{CooMatrix, CsrMatrix, Matrix};

/// Strategy: a small random DAG netlist built the same way the generator
/// guarantees acyclicity (fanins only from earlier nodes), with all
/// dangling nodes promoted to primary outputs.
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

/// Whether `net.topo_order()` lists every node once, each non-pseudo-input
/// node after all of its fanins.
fn order_is_topological(net: &Netlist) -> bool {
    let mut pos = vec![usize::MAX; net.node_count()];
    for (i, id) in net.topo_order().iter().enumerate() {
        if pos[id.index()] != usize::MAX {
            return false;
        }
        pos[id.index()] = i;
    }
    net.topo_order().len() == net.node_count()
        && net.nodes().all(|v| {
            net.kind(v).is_pseudo_input()
                || net
                    .fanin(v)
                    .iter()
                    .all(|&u| pos[u.index()] < pos[v.index()])
        })
}

/// A builder holding `net`'s cells and every edge `keep` accepts.
fn rebuild(net: &Netlist, keep: impl Fn(NodeId, NodeId) -> bool) -> NetlistBuilder {
    let mut b = NetlistBuilder::new("mutated");
    for v in net.nodes() {
        b.add_cell(net.kind(v));
    }
    for v in net.nodes() {
        for &u in net.fanin(v).iter().filter(|&&u| keep(u, v)) {
            b.connect(u, v).unwrap();
        }
    }
    b
}

/// The violations `b.build()` refuses with.
fn refusal(b: NetlistBuilder) -> Vec<Violation> {
    match b.build() {
        Err(NetlistError::Invalid(violations)) => violations,
        Err(other) => panic!("expected violations, got {other}"),
        Ok(net) => panic!("a mutated design of {} nodes built", net.node_count()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generated netlist carries a topological order of all its
    /// nodes.
    #[test]
    fn generated_netlists_validate(net in arb_netlist()) {
        prop_assert!(order_is_topological(&net));
    }

    /// The `.bench` reader is total: a written design with bits flipped,
    /// `=`/`(` characters deleted and its tail cut off parses to a
    /// netlist or a `NetlistError`, and whatever it accepts levelises,
    /// gets SCOAP measures and runs through ATPG without an error.
    #[test]
    fn mutated_bench_text_parses_or_fails_typed(
        net in arb_netlist(),
        flips in proptest::collection::vec(any::<u64>(), 0..4),
        deletions in proptest::collection::vec(any::<u32>(), 0..4),
        cut_frac in 0u64..1001,
    ) {
        let mut bytes = format::write(&net).into_bytes();
        for bit in flips {
            let pos = (bit / 8) as usize % bytes.len();
            bytes[pos] ^= 1 << (bit % 8);
        }
        for pick in deletions {
            let syntax: Vec<usize> = (0..bytes.len())
                .filter(|&i| bytes[i] == b'=' || bytes[i] == b'(')
                .collect();
            if !syntax.is_empty() {
                bytes.remove(syntax[pick as usize % syntax.len()]);
            }
        }
        bytes.truncate((bytes.len() as u64 * cut_frac / 1000) as usize);
        if let Ok(parsed) = format::read(&String::from_utf8_lossy(&bytes)) {
            prop_assert!(logic_levels(&parsed).is_ok());
            prop_assert!(Scoap::compute(&parsed).is_ok());
            let atpg = AtpgConfig { max_patterns: 128, ..AtpgConfig::default() };
            prop_assert!(run_random_atpg(&parsed, &atpg).is_ok());
        }
    }

    /// SCOAP invariants: pseudo inputs cost 1/1, all costs are in
    /// [1, SCOAP_INF], and a node driving a primary output has CO = 0.
    #[test]
    fn scoap_invariants(net in arb_netlist()) {
        let scoap = Scoap::compute(&net).unwrap();
        for v in net.nodes() {
            let kind = net.kind(v);
            if kind.is_pseudo_input() {
                prop_assert_eq!(scoap.cc0(v), 1);
                prop_assert_eq!(scoap.cc1(v), 1);
            } else {
                prop_assert!(scoap.cc0(v) >= 1);
                prop_assert!(scoap.cc1(v) >= 1);
            }
            prop_assert!(scoap.cc0(v) <= SCOAP_INF);
            prop_assert!(scoap.cc1(v) <= SCOAP_INF);
            if net.fanout(v).iter().any(|&u| net.kind(u) == CellKind::Output) {
                prop_assert_eq!(scoap.co(v), 0);
            }
        }
    }

    /// Observation-point insertion only improves observability, never
    /// worsens it, and leaves controllability untouched.
    #[test]
    fn observation_point_is_monotone(net in arb_netlist(), pick in any::<u32>()) {
        let candidates: Vec<_> = net
            .nodes()
            .filter(|&v| net.kind(v) != CellKind::Output)
            .collect();
        prop_assume!(!candidates.is_empty());
        let target = candidates[pick as usize % candidates.len()];
        let before = Scoap::compute(&net).unwrap();
        let mut net2 = net.clone();
        let op = net2.insert_observation_point(target).unwrap();
        let mut after = before.clone();
        after.observe(&net2, target, op);
        for v in net.nodes() {
            prop_assert!(after.co(v) <= before.co(v), "co worsened at {}", v);
            prop_assert_eq!(after.cc0(v), before.cc0(v));
            prop_assert_eq!(after.cc1(v), before.cc1(v));
        }
        prop_assert_eq!(after.co(target), 0);
        // Incremental result matches full recompute.
        let full = Scoap::compute(&net2).unwrap();
        prop_assert_eq!(&after, &full);
    }

    /// The aggregation operator and its backward are adjoint:
    /// <A e, d> == <e, A^T d> for random dense matrices.
    #[test]
    fn aggregate_adjointness(
        net in arb_netlist(),
        w_pr in -1.0f32..1.0,
        w_su in -1.0f32..1.0,
        seed in any::<u64>(),
    ) {
        let t = GraphTensors::from_netlist(&net);
        let n = t.node_count();
        use rand::Rng as _;
        let mut rng = seeded_rng(seed);
        let e = Matrix::from_fn(n, 3, |_, _| rng.gen_range(-1.0f32..1.0));
        let d = Matrix::from_fn(n, 3, |_, _| rng.gen_range(-1.0f32..1.0));
        let (g, _, _) = t.aggregate(&e, w_pr, w_su).unwrap();
        let de = t.aggregate_backward(&d, w_pr, w_su).unwrap();
        let lhs = g.dot(&d).unwrap() as f64;
        let rhs = e.dot(&de).unwrap() as f64;
        let scale = 1.0 + lhs.abs().max(rhs.abs());
        prop_assert!(((lhs - rhs) / scale).abs() < 1e-4, "{lhs} vs {rhs}");
    }

    /// Matrix-form inference equals recursion-based inference on random
    /// graphs and random (untrained) models — the §3.4.1 equivalence.
    #[test]
    fn matrix_and_recursive_inference_agree(net in arb_netlist(), seed in any::<u64>()) {
        let data = GraphData::from_netlist(&net, None).unwrap();
        let gcn = Gcn::new(
            &GcnConfig {
                embed_dims: vec![5, 6],
                fc_dims: vec![4],
                ..GcnConfig::default()
            },
            &mut seeded_rng(seed),
        );
        let fast = gcn.predict(&data.tensors, &data.features).unwrap();
        let nodes: Vec<usize> = (0..data.node_count()).step_by(7).collect();
        let slow = recursive::predict_nodes(&gcn, &data.tensors, &data.features, &nodes).unwrap();
        for (i, &node) in nodes.iter().enumerate() {
            for c in 0..2 {
                let a = fast.get(node, c);
                let b = slow.get(i, c);
                prop_assert!(
                    (a - b).abs() < 1e-3 * (1.0 + a.abs()),
                    "node {node} class {c}: {a} vs {b}"
                );
            }
        }
    }

    /// COO -> CSR -> dense equals COO -> dense for arbitrary triplet sets
    /// (duplicates included).
    #[test]
    fn coo_csr_dense_agree(
        triplets in proptest::collection::vec((0usize..12, 0usize..12, -5.0f32..5.0), 0..60)
    ) {
        let coo = CooMatrix::from_triplets(12, 12, triplets).unwrap();
        let via_csr = coo.to_csr().to_dense();
        let direct = coo.to_dense();
        for r in 0..12 {
            for c in 0..12 {
                prop_assert!((via_csr.get(r, c) - direct.get(r, c)).abs() < 1e-4);
            }
        }
    }

    /// Mutation: dropping an edge whose sink sits at its arity lower bound
    /// must stop the design from building, and the linter must report the
    /// refusal (`NL002` if fanins remain, `NL004` if none do).
    #[test]
    fn lint_catches_dropped_edge(net in arb_netlist(), pick in any::<u32>()) {
        prop_assert!(lint_netlist(&net).is_clean());
        // Edges whose removal necessarily breaks the sink's arity.
        let brittle: Vec<(usize, usize)> = net
            .nodes()
            .filter(|&v| {
                let lo = net.kind(v).arity().0;
                lo > 0 && net.fanin(v).len() == lo
            })
            .flat_map(|v| net.fanin(v).iter().map(move |&u| (u.index(), v.index())))
            .collect();
        prop_assume!(!brittle.is_empty());
        let (drop_src, drop_sink) = brittle[pick as usize % brittle.len()];
        // The netlist has no edge removal; rebuild it without the edge.
        let mutated = rebuild(&net, |u, v| (u.index(), v.index()) != (drop_src, drop_sink));
        let report = lint_violations(&refusal(mutated));
        prop_assert!(
            report.fired(RuleId::BadArity) || report.fired(RuleId::FloatingInput),
            "dropping {drop_src}->{drop_sink} went unnoticed:\n{report}"
        );
    }

    /// Mutation: adding a back edge between two connected combinational
    /// gates must stop the design from building, and the linter must
    /// report `NL001 combinational-cycle`.
    #[test]
    fn lint_catches_back_edge(net in arb_netlist(), pick in any::<u32>()) {
        let gate_edges: Vec<_> = net
            .nodes()
            .filter(|&v| !net.kind(v).is_pseudo_input() && !net.kind(v).is_pseudo_output())
            .flat_map(|v| {
                net.fanin(v)
                    .iter()
                    .filter(|&&u| !net.kind(u).is_pseudo_input())
                    .map(move |&u| (u, v))
                    .collect::<Vec<_>>()
            })
            .collect();
        prop_assume!(!gate_edges.is_empty());
        let (u, v) = gate_edges[pick as usize % gate_edges.len()];
        let mut mutated = rebuild(&net, |_, _| true);
        mutated.connect(v, u).unwrap(); // u -> v already exists: a 2-cycle
        let report = lint_violations(&refusal(mutated));
        prop_assert!(
            report.fired(RuleId::CombinationalCycle),
            "back edge {} -> {} went unnoticed:\n{report}",
            v.index(),
            u.index()
        );
    }

    /// Where levels and SCOAP are made, on designs grown by random
    /// observation points: `logic_levels` is 0 on a pseudo input and
    /// 1 + the highest fanin level elsewhere, every SCOAP measure is in
    /// range (`cc0`/`cc1` in `[1, SCOAP_INF]` and 1/1 on a pseudo input,
    /// `co` at most `SCOAP_INF`), and after every insertion the
    /// incrementally observed SCOAP is the from-scratch one and the stored
    /// order is still topological.
    #[test]
    fn levels_and_scoap_hold_their_invariants_under_insertion(
        net in arb_netlist(),
        picks in proptest::collection::vec(any::<u32>(), 0..8),
    ) {
        let mut net = net;
        let mut scoap = Scoap::compute(&net).unwrap();
        for pick in picks {
            let internal: Vec<_> = net
                .nodes()
                .filter(|&v| net.kind(v) != CellKind::Output)
                .collect();
            let target = internal[pick as usize % internal.len()];
            let op = net.insert_observation_point(target).unwrap();
            scoap.observe(&net, target, op);
            prop_assert_eq!(&scoap, &Scoap::compute(&net).unwrap());
            prop_assert!(order_is_topological(&net));
        }
        let levels = logic_levels(&net).unwrap();
        prop_assert_eq!(levels.len(), net.node_count());
        for v in net.nodes() {
            let pseudo_input = net.kind(v).is_pseudo_input();
            let expected = if pseudo_input {
                0
            } else {
                1 + net.fanin(v).iter().map(|&u| levels[u.index()]).max().unwrap_or(0)
            };
            prop_assert_eq!(levels[v.index()], expected, "level of node {}", v.index());
            let (cc0, cc1, co) = (scoap.cc0(v), scoap.cc1(v), scoap.co(v));
            prop_assert!(
                (1..=SCOAP_INF).contains(&cc0) && (1..=SCOAP_INF).contains(&cc1) && co <= SCOAP_INF,
                "node {}: cc0/cc1/co = {cc0}/{cc1}/{co}",
                v.index()
            );
            if pseudo_input {
                prop_assert_eq!((cc0, cc1), (1, 1));
            }
        }
    }

    /// Mutation: reversing the column order of any CSR row with two or
    /// more entries must trip `TS002 csr-sorted-indices`.
    #[test]
    fn lint_catches_shuffled_csr_columns(net in arb_netlist(), pick in any::<u32>()) {
        let t = GraphTensors::from_netlist(&net);
        let csr = t.pred();
        prop_assert!(lint_csr(csr, "pred").is_clean());
        let indptr = csr.indptr();
        let wide_rows: Vec<usize> = (0..csr.rows())
            .filter(|&r| indptr[r + 1] - indptr[r] >= 2)
            .collect();
        prop_assume!(!wide_rows.is_empty());
        let row = wide_rows[pick as usize % wide_rows.len()];
        let mut indices = csr.indices().to_vec();
        indices[indptr[row]..indptr[row + 1]].reverse();
        let shuffled = CsrMatrix::from_raw_parts_unchecked(
            csr.rows(),
            csr.cols(),
            indptr.to_vec(),
            indices,
            csr.values().to_vec(),
        );
        let report = lint_csr(&shuffled, "pred");
        prop_assert!(
            report.fired(RuleId::CsrSortedIndices),
            "shuffling row {row} went unnoticed:\n{report}"
        );
    }

    /// Appending observation points in place is a rebuild, array for
    /// array: after every insertion the tensors equal
    /// `GraphTensors::from_netlist` (a `succ` entry anywhere but the end of
    /// row `target` would break the sorted-row equality), `succ` is still
    /// `pred` transposed, and TS001 finds the structure in the netlist.
    /// (`Netlist::connect` refuses a second wire between the same two
    /// cells, so no design here has a doubly-connected driver.)
    #[test]
    fn in_place_insertion_equals_rebuild(
        net in arb_netlist(),
        picks in proptest::collection::vec(any::<u32>(), 1..13),
    ) {
        let mut net = net;
        let mut t = GraphTensors::from_netlist(&net);
        for (k, pick) in picks.into_iter().enumerate() {
            let internal: Vec<_> = net
                .nodes()
                .filter(|&v| net.kind(v) != CellKind::Output)
                .collect();
            let target = internal[pick as usize % internal.len()];
            let op = net.insert_observation_point(target).unwrap();
            t.insert_observation_point(target, op).unwrap();
            prop_assert_eq!(t.generation(), k as u64 + 1);
            prop_assert_eq!(&t, &GraphTensors::from_netlist(&net));
            prop_assert_eq!(t.succ(), &t.pred().transpose());
            let report = lint_graph_tensors(&net, &t);
            prop_assert!(report.is_clean(), "after insertion {k}:\n{report}");
        }
    }

    /// The incremental dirty-halo engine is bit-for-bit identical to the
    /// full forward pass at every depth, and its revert restores the
    /// cache exactly — the invariant the flow's preview path stands on.
    #[test]
    fn incremental_embedding_matches_full(
        net in arb_netlist(),
        seed in any::<u64>(),
        depth in 1usize..4,
        dirty_picks in proptest::collection::vec(any::<u32>(), 1..6),
    ) {
        let data = GraphData::from_netlist(&net, None).unwrap();
        let gcn = Gcn::new(
            &GcnConfig {
                embed_dims: vec![6, 5, 4][..depth].to_vec(),
                fc_dims: vec![4],
                ..GcnConfig::default()
            },
            &mut seeded_rng(seed),
        );
        let n = data.node_count();
        let mut x = data.features.clone();
        let mut cache = gcn.embed_cached(&data.tensors, &x).unwrap();
        let pristine = cache.clone();
        let dirty: Vec<usize> = dirty_picks.iter().map(|&p| p as usize % n).collect();
        for &r in &dirty {
            x.set(r, 3, x.get(r, 3) + 0.5);
        }
        let delta = gcn
            .embed_incremental(&data.tensors, &x, &mut cache, &dirty)
            .unwrap();
        // Bit-identical to a from-scratch recompute, layer by layer.
        let fresh = gcn.embed_cached(&data.tensors, &x).unwrap();
        prop_assert_eq!(cache.layers(), fresh.layers());
        let full = gcn.embed(&data.tensors, &x).unwrap();
        prop_assert_eq!(cache.final_embedding(), &full);
        // Revert restores the pristine cache, bit for bit.
        cache.revert(delta);
        prop_assert_eq!(cache.layers(), pristine.layers());
    }

    /// The flow's incremental impact scoring (a model reference opens a
    /// session) is outcome-identical to full re-inference (what a closure
    /// classifier gets) on random designs and random (untrained) models:
    /// same insertions, same history, same final netlist.
    #[test]
    fn flow_incremental_equals_full(net in arb_netlist(), seed in any::<u64>()) {
        let data = GraphData::from_netlist(&net, None).unwrap();
        let gcn = Gcn::new(
            &GcnConfig {
                embed_dims: vec![8, 8],
                fc_dims: vec![8],
                ..GcnConfig::default()
            },
            &mut seeded_rng(seed),
        );
        let cfg = FlowConfig {
            max_iterations: 3,
            ops_per_iteration: 2,
            candidate_limit: 6,
            ..FlowConfig::default()
        };
        let mut net_full = net.clone();
        let full_pass = |t: &GraphTensors, x: &Matrix| gcn.predict_proba(t, x);
        let full = run_gcn_opi(&mut net_full, &data.normalizer, full_pass, &cfg).unwrap();
        let mut net_inc = net.clone();
        let inc = run_gcn_opi(&mut net_inc, &data.normalizer, &gcn, &cfg).unwrap();
        prop_assert_eq!(full.inserted, inc.inserted);
        prop_assert_eq!(full.converged, inc.converged);
        prop_assert_eq!(full.remaining_positives, inc.remaining_positives);
        prop_assert_eq!(full.history, inc.history);
        prop_assert_eq!(full.skipped, inc.skipped);
        prop_assert_eq!(net_full, net_inc);
    }

    /// Degradation-ladder monotonicity: on the same request, a tighter
    /// deadline never selects a *higher* (earlier) rung than a looser one.
    #[test]
    fn serve_rung_is_monotone_in_the_deadline(
        net in arb_netlist(),
        seed in any::<u64>(),
        cap_a in 1u64..20_000,
        cap_b in 1u64..20_000,
    ) {
        use gcn_testability::gcn::MatrixBackend;
        use gcn_testability::serve::classify_with_ladder_backed;
        use gcn_testability::tensor::Budget;

        let data = GraphData::from_netlist(&net, None).unwrap();
        let cfg = GcnConfig {
            embed_dims: vec![6, 6],
            fc_dims: vec![6],
            ..GcnConfig::default()
        };
        let model = gcn_testability::gcn::MultiStageGcn::from_stages(
            vec![Gcn::new(&cfg, &mut seeded_rng(seed)), Gcn::new(&cfg, &mut seeded_rng(seed ^ 1))],
            0.5,
        );
        let (loose, tight) = (cap_a.max(cap_b), cap_a.min(cap_b));
        let at = |cap: u64| {
            classify_with_ladder_backed(
                &model,
                &data.tensors,
                &data.features,
                &Budget::with_cap(cap),
                false,
                &mut MatrixBackend::serial(),
            )
            .unwrap()
            .0
        };
        let loose_out = at(loose);
        let tight_out = at(tight);
        prop_assert!(
            tight_out.rung.depth() >= loose_out.rung.depth(),
            "cap {} picked {} but looser cap {} picked {}",
            tight, tight_out.rung, loose, loose_out.rung
        );
    }

    /// spmm distributes over dense addition: A(X + Y) = AX + AY.
    #[test]
    fn spmm_linearity(net in arb_netlist(), seed in any::<u64>()) {
        let t = GraphTensors::from_netlist(&net);
        let n = t.node_count();
        use rand::Rng as _;
        let mut rng = seeded_rng(seed);
        let x = Matrix::from_fn(n, 2, |_, _| rng.gen_range(-1.0f32..1.0));
        let y = Matrix::from_fn(n, 2, |_, _| rng.gen_range(-1.0f32..1.0));
        let lhs = t.pred().spmm(&x.add(&y).unwrap()).unwrap();
        let rhs = t.pred().spmm(&x).unwrap().add(&t.pred().spmm(&y).unwrap()).unwrap();
        for (a, b) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }
}

/// A scratch journal path unique to this process and call.
fn scratch_wal(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gcnt-prop-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("flow.wal")
}

proptest! {
    // Each case runs several full flows; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Write-ahead journal replay is idempotent through the filesystem: a
    /// flow killed after *any* prefix of committed batch records — with or
    /// without a torn half-written line behind it — resumes on restart to
    /// the same outcome, the same design, and a byte-identical journal as
    /// an uninterrupted run.
    #[test]
    fn serve_journal_resume_is_bit_identical(
        net in arb_netlist(),
        seed in any::<u64>(),
        cut_pick in any::<u32>(),
        torn in any::<bool>(),
    ) {
        use gcn_testability::gcn::MultiStageGcn;
        use gcn_testability::serve::{ServeConfig, ServeCore};

        let data = GraphData::from_netlist(&net, None).unwrap();
        let cfg = GcnConfig {
            embed_dims: vec![6, 6],
            fc_dims: vec![6],
            ..GcnConfig::default()
        };
        let model = MultiStageGcn::from_stages(
            vec![Gcn::new(&cfg, &mut seeded_rng(seed))],
            0.5,
        );
        let flow_cfg = FlowConfig {
            max_iterations: 3,
            ops_per_iteration: 2,
            candidate_limit: 6,
            prob_threshold: 0.05,
            ..FlowConfig::default()
        };
        let fresh_core = || {
            ServeCore::new(data.normalizer.clone(), model.clone(), ServeConfig::default())
        };

        // Uninterrupted reference run.
        let ref_wal = scratch_wal("ref");
        let mut ref_net = net.clone();
        let reference = fresh_core()
            .run_flow_job(&mut ref_net, &flow_cfg, &ref_wal, None)
            .unwrap();
        let ref_text = std::fs::read_to_string(&ref_wal).unwrap();
        let lines: Vec<&str> = ref_text.lines().collect();
        let records = lines.len() - 1; // minus the header line

        // Crash site: keep the header plus `cut` committed records,
        // optionally followed by a torn (half-written) line.
        let cut = if records == 0 { 0 } else { cut_pick as usize % (records + 1) };
        let cut_wal = scratch_wal("cut");
        let mut prefix = lines[..=cut].join("\n");
        prefix.push('\n');
        if torn {
            prefix.push_str("{\"seq\":999,\"chec"); // no trailing newline
        }
        std::fs::write(&cut_wal, &prefix).unwrap();

        let mut cut_net = net.clone();
        let resumed = fresh_core()
            .run_flow_job(&mut cut_net, &flow_cfg, &cut_wal, None)
            .unwrap();
        prop_assert_eq!(resumed.resumed_batches, cut);
        prop_assert_eq!(resumed.recovered_torn_tail, torn);
        prop_assert_eq!(&resumed.outcome, &reference.outcome);
        prop_assert_eq!(&cut_net, &ref_net);
        prop_assert_eq!(resumed.journal_records, reference.journal_records);
        let cut_text = std::fs::read_to_string(&cut_wal).unwrap();
        prop_assert_eq!(cut_text, ref_text, "healed journal must match the reference");
    }
}

/// One random single-byte mutation of `bytes`: a bit flip, a deleted byte
/// or a cut tail.
fn mutate_one_byte(bytes: &[u8], rng: &mut gcn_testability::nn::Rng) -> Vec<u8> {
    use rand::Rng as _;
    let mut out = bytes.to_vec();
    let pos = rng.gen_range(0..out.len());
    match rng.gen_range(0..3u32) {
        0 => out[pos] ^= 1 << rng.gen_range(0..8u32),
        1 => {
            out.remove(pos);
        }
        _ => out.truncate(pos),
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The model-bundle decoders are total and refuse what they cannot
    /// use: the JSON of a small 2-stage cascade and of a fitted normaliser,
    /// each with one byte flipped, deleted or cut off, either fails to
    /// decode, or decodes into a cascade of at least one stage, a
    /// probability as its filter threshold, layers whose matrices fill
    /// their shape and chain into each other, and finite parameters —
    /// which then scores / normalises a 120-node design without panicking.
    #[test]
    fn mutated_model_json_decodes_or_fails_typed(seed in any::<u64>()) {
        use gcn_testability::gcn::features::FeatureNormalizer;
        use gcn_testability::gcn::MultiStageGcn;

        // Captured, so a failing case prints the seed that reproduces it.
        eprintln!("mutated_model_json_decodes_or_fails_typed: seed {seed:#018x}");
        let net = generate(&GeneratorConfig::sized("fuzz", 3, 120));
        let data = GraphData::from_netlist(&net, None).unwrap();
        let cfg = GcnConfig {
            embed_dims: vec![3],
            fc_dims: vec![3],
            ..GcnConfig::default()
        };
        let model = MultiStageGcn::from_stages(
            vec![Gcn::new(&cfg, &mut seeded_rng(1)), Gcn::new(&cfg, &mut seeded_rng(2))],
            0.5,
        );
        let model_json = serde_json::to_string(&model).unwrap();
        let norm_json = serde_json::to_string(&data.normalizer).unwrap();
        let mut rng = seeded_rng(seed);

        let mutant = mutate_one_byte(model_json.as_bytes(), &mut rng);
        if let Ok(decoded) = serde_json::from_str::<MultiStageGcn>(&String::from_utf8_lossy(&mutant)) {
            prop_assert!(!decoded.stages().is_empty(), "seed {:#x}", seed);
            prop_assert!((0.0..=1.0).contains(&decoded.filter_threshold()), "seed {:#x}", seed);
            for stage in decoded.stages() {
                prop_assert!(stage.w_pr().is_finite() && stage.w_su().is_finite(), "seed {:#x}", seed);
                let layers: Vec<_> = stage.encoders().iter().chain(stage.head().layers()).collect();
                for layer in &layers {
                    let (w, b) = (layer.weight(), layer.bias());
                    prop_assert_eq!(w.as_slice().len(), w.rows() * w.cols(), "seed {:#x}", seed);
                    prop_assert_eq!(b.len(), layer.fan_out(), "seed {:#x}", seed);
                    prop_assert!(w.as_slice().iter().chain(b).all(|p| p.is_finite()), "seed {:#x}", seed);
                }
                for pair in layers.windows(2) {
                    prop_assert_eq!(pair[0].fan_out(), pair[1].fan_in(), "seed {:#x}", seed);
                }
            }
            let _ = decoded.predict_proba(&data.tensors, &data.features);
        }

        let mutant = mutate_one_byte(norm_json.as_bytes(), &mut rng);
        if let Ok(decoded) = serde_json::from_str::<FeatureNormalizer>(&String::from_utf8_lossy(&mutant)) {
            let _ = decoded.apply(&data.raw_features);
        }
    }
}
