//! Property-based tests for the partitioned matrix backend: the sharded
//! kernels must be *bit-identical* to the serial ones on arbitrary
//! graphs, at every partition count, and through every inference path
//! (full, backend-threaded, incremental) — the invariant that makes the
//! backend a pure performance choice with no numerical consequences.
//! (The flow-level property, which has to force a partitioned backend
//! onto designs `MatrixBackend::auto` keeps serial, lives in-crate in
//! `gcnt_dft::flow`'s tests.)

use proptest::prelude::*;

use gcn_testability::gcn::{
    CascadeSession, Gcn, GcnConfig, GraphData, GraphTensors, MatrixBackend, MultiStageGcn,
};
use gcn_testability::netlist::{generate, GeneratorConfig, Netlist};
use gcn_testability::nn::seeded_rng;
use gcn_testability::tensor::{Budget, Matrix, PartitionedCsr};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sharded SpMM equals serial SpMM bit for bit, on both adjacency
    /// directions, for every partition count from 1 to 8.
    #[test]
    fn partitioned_spmm_is_bitwise_serial(
        net in arb_netlist(),
        parts in 1usize..9,
        seed in any::<u64>(),
    ) {
        let t = GraphTensors::from_netlist(&net);
        let n = t.node_count();
        use rand::Rng as _;
        let mut rng = seeded_rng(seed);
        let x = Matrix::from_fn(n, 5, |_, _| rng.gen_range(-1.0f32..1.0));
        for (name, csr) in [("pred", t.pred()), ("succ", t.succ())] {
            let sharded = PartitionedCsr::from_csr(csr, parts).unwrap();
            let serial = csr.spmm(&x).unwrap();
            let parallel = sharded.spmm(&x).unwrap();
            prop_assert_eq!(
                serial.as_slice(),
                parallel.as_slice(),
                "{} diverged at {} partitions",
                name,
                parts
            );
        }
    }

    /// The three inference paths agree bit for bit: a plain full pass, a
    /// partitioned-backend pass, and a dirty-halo refresh of a session
    /// *opened on the partitioned backend* (a single GCN runs as a
    /// one-stage cascade).
    #[test]
    fn embed_full_partitioned_incremental_agree(
        net in arb_netlist(),
        seed in any::<u64>(),
        parts in 1usize..9,
        dirty_picks in proptest::collection::vec(any::<u32>(), 1..5),
    ) {
        let data = GraphData::from_netlist(&net, None).unwrap();
        let gcn = Gcn::new(
            &GcnConfig {
                embed_dims: vec![6, 5],
                fc_dims: vec![4],
                ..GcnConfig::default()
            },
            &mut seeded_rng(seed),
        );
        let t = &data.tensors;
        let n = data.node_count();
        let mut backend = MatrixBackend::partitioned(t, parts).unwrap();

        // Full serial vs backend-threaded full pass.
        let full = gcn.predict_proba(t, &data.features).unwrap();
        let backed = gcn
            .predict_proba_budgeted_with(t, &data.features, &Budget::unlimited(), &mut backend)
            .unwrap();
        prop_assert_eq!(&full, &backed);

        // A session opened through the partitioned backend, refreshed by
        // the serial dirty-halo engine, must land exactly where a serial
        // from-scratch pass lands.
        let model = MultiStageGcn::from_stages(vec![gcn.clone()], 0.5);
        let mut x = data.features.clone();
        let mut session = CascadeSession::for_cascade_budgeted_with(
            &model,
            t,
            &x,
            0,
            &Budget::unlimited(),
            &mut backend,
        )
        .unwrap();
        let serial = model.open_session(t, &x).unwrap();
        prop_assert_eq!(session.probs(), serial.probs());
        let dirty: Vec<usize> = dirty_picks.iter().map(|&p| p as usize % n).collect();
        for &r in &dirty {
            x.set(r, 3, x.get(r, 3) + 0.5);
        }
        session.refresh(t, &x, &dirty).unwrap();
        let probs = gcn.predict_proba(t, &x).unwrap();
        prop_assert_eq!(session.probs(), probs.as_slice());
        let caches = session.into_caches(t, &x).unwrap();
        let fresh = gcn.embed(t, &x).unwrap();
        prop_assert_eq!(caches[0].final_embedding(), &fresh);
    }
}
