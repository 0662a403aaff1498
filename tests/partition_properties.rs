//! Property-based tests for the partitioned matrix backend: the sharded
//! kernels must be *bit-identical* to the serial ones on arbitrary
//! graphs, at every partition count, and through every inference path
//! (full, backend-threaded, incremental) — the invariant that makes the
//! backend a pure performance choice with no numerical consequences.
//! (The flow-level property, which has to force a partitioned backend
//! onto designs `MatrixBackend::auto` keeps serial, lives in-crate in
//! `gcnt_dft::flow`'s tests.)

use proptest::prelude::*;

use gcn_testability::gcn::{Gcn, GcnConfig, GraphData, GraphTensors, MatrixBackend};
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

    /// The three inference paths agree bit for bit: a plain full embed, a
    /// partitioned-backend embed, and a dirty-halo incremental update of
    /// a cache that was *built on the partitioned backend*.
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
        let n = data.node_count();
        let mut backend = MatrixBackend::partitioned(&data.tensors, parts).unwrap();

        // Full serial vs backend-threaded full pass.
        let full = gcn.embed(&data.tensors, &data.features).unwrap();
        let backed = gcn
            .embed_budgeted_with(
                &data.tensors,
                &data.features,
                &Budget::unlimited(),
                &mut backend,
            )
            .unwrap();
        prop_assert_eq!(&full, &backed);

        // A cache built through the partitioned backend, updated by the
        // serial dirty-halo engine, must land exactly where a serial
        // from-scratch recompute lands.
        let mut x = data.features.clone();
        let mut cache = gcn
            .embed_cached_budgeted_with(
                &data.tensors,
                &x,
                &Budget::unlimited(),
                &mut backend,
            )
            .unwrap();
        let serial_cache = gcn.embed_cached(&data.tensors, &x).unwrap();
        prop_assert_eq!(cache.layers(), serial_cache.layers());
        let dirty: Vec<usize> = dirty_picks.iter().map(|&p| p as usize % n).collect();
        for &r in &dirty {
            x.set(r, 3, x.get(r, 3) + 0.5);
        }
        gcn.embed_incremental(&data.tensors, &x, &mut cache, &dirty)
            .unwrap();
        let fresh = gcn.embed(&data.tensors, &x).unwrap();
        prop_assert_eq!(cache.final_embedding(), &fresh);
    }
}
