//! The scaling story (§3.4.2): one full embedding pass at the paper's
//! 10^5-node design class, serial CSR vs the partition-parallel sharded
//! backend. The two are bit-identical by construction, so this group
//! measures pure kernel/backends cost — gated by `BENCH_baseline.json`
//! through `scripts/bench_gate.sh`.
//!
//! On a single-core host the partitioned backend degenerates to one
//! worker and measures sharding overhead (halo gather + arena layout);
//! the scaling win needs cores. EXPERIMENTS.md records both honestly.

use criterion::{criterion_group, criterion_main, Criterion};

use gcnt_core::{Gcn, GcnConfig, GraphData, MatrixBackend};
use gcnt_netlist::{generate, DesignPreset};
use gcnt_nn::seeded_rng;
use gcnt_tensor::Budget;

fn bench_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale");
    group.sample_size(10);
    let net = generate(&DesignPreset::B1.config(100_000));
    let data = GraphData::from_netlist(&net, None).expect("generated design featurises");
    let model = Gcn::new(&GcnConfig::default(), &mut seeded_rng(7));
    group.bench_function("embed_100k_serial", |b| {
        let mut backend = MatrixBackend::serial();
        b.iter(|| {
            model
                .embed_budgeted_with(
                    &data.tensors,
                    &data.features,
                    &Budget::unlimited(),
                    &mut backend,
                )
                .expect("shapes agree")
        })
    });
    group.bench_function("embed_100k_partitioned", |b| {
        let mut backend =
            MatrixBackend::partitioned(&data.tensors, 4).expect("design shards cleanly");
        b.iter(|| {
            model
                .embed_budgeted_with(
                    &data.tensors,
                    &data.features,
                    &Budget::unlimited(),
                    &mut backend,
                )
                .expect("shapes agree")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
