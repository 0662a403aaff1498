//! Criterion bench for §3.4.2: per-epoch training cost, graph after graph
//! on one thread vs the one-worker-per-graph scheme every trainer runs.
//!
//! The serial arm is the by-parts loop written here (the library has no
//! serial trainer). On a single-core host the two are expected to tie
//! (workers are a scheduling change, not an algorithmic one — the test
//! suite asserts bit-identical models); on a multi-core host the worker
//! variant approaches a `#graphs`-fold speedup.

use criterion::{criterion_group, criterion_main, Criterion};

use gcnt_core::train::{apply_update, masked_loss_grads, train, TrainConfig};
use gcnt_core::{Gcn, GcnConfig, GraphData};
use gcnt_netlist::{generate, GeneratorConfig, Scoap};
use gcnt_nn::seeded_rng;

fn labeled(seed: u64, nodes: usize) -> GraphData {
    let net = generate(&GeneratorConfig::sized("t", seed, nodes));
    let scoap = Scoap::compute(&net).expect("acyclic");
    let mut cos: Vec<u32> = net.nodes().map(|v| scoap.co(v)).collect();
    cos.sort_unstable();
    let thresh = cos[cos.len() * 95 / 100].max(1);
    let labels = net
        .nodes()
        .map(|v| u8::from(scoap.co(v) >= thresh))
        .collect();
    GraphData::from_netlist(&net, None)
        .expect("acyclic")
        .with_labels(labels)
}

fn bench_training(c: &mut Criterion) {
    let graphs: Vec<GraphData> = (0..3).map(|i| labeled(100 + i, 2_000)).collect();
    let refs: Vec<&GraphData> = graphs.iter().collect();
    let masks: Vec<Vec<usize>> = graphs
        .iter()
        .map(|g| (0..g.node_count()).step_by(4).collect())
        .collect();
    let cfg = TrainConfig {
        epochs: 1,
        lr: 0.05,
        pos_weight: 4.0,
        momentum: 0.0,
    };

    let mut group = c.benchmark_group("training_epoch");
    group.sample_size(10);
    group.bench_function("serial_3_graphs", |b| {
        b.iter(|| {
            let mut gcn = Gcn::new(&GcnConfig::with_depth(2), &mut seeded_rng(7));
            let mut total = gcn.zero_grads();
            for (data, mask) in refs.iter().zip(&masks) {
                let (_, grads, _) = masked_loss_grads(&gcn, data, mask, &[1.0, cfg.pos_weight])
                    .expect("shapes agree");
                total.accumulate(&grads);
            }
            total.scale(1.0 / refs.len() as f32);
            apply_update(&mut gcn, &total, &cfg, &mut None);
            gcn
        })
    });
    group.bench_function("parallel_3_graphs", |b| {
        b.iter(|| {
            let mut gcn = Gcn::new(&GcnConfig::with_depth(2), &mut seeded_rng(7));
            train(&mut gcn, &refs, &masks, &cfg).expect("shapes agree")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_training);
criterion_main!(benches);
