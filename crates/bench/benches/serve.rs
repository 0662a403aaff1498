//! Serving-layer micro-benches: the cost of robustness. Journal appends
//! (with their per-record fsync), crash recovery of a populated journal,
//! and the degradation ladder at each of its three rungs.

use std::sync::atomic::{AtomicUsize, Ordering};

use criterion::{criterion_group, criterion_main, Criterion};

use gcnt_core::{Gcn, GcnConfig, GraphData, MatrixBackend, MultiStageGcn};
use gcnt_dft::flow::{BatchRecord, FlowConfig, InferenceStats};
use gcnt_netlist::{generate, GeneratorConfig};
use gcnt_serve::{classify_with_ladder_backed, FlowJournal, JournalHeader};
use gcnt_tensor::Budget;

fn scratch_wal() -> std::path::PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gcnt-bench-serve-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join("bench.wal")
}

fn sample_record(seq: usize) -> BatchRecord {
    BatchRecord {
        iteration: seq,
        positives: 64usize.saturating_sub(seq),
        inserted: Vec::new(),
        skipped: Vec::new(),
        converged: false,
        stats_after: InferenceStats {
            rows_computed: seq as u64 * 100,
            rows_full: seq as u64 * 400,
            inferences: seq as u64,
        },
    }
}

fn bench_journal(c: &mut Criterion) {
    let net = generate(&GeneratorConfig::sized("wal", 3, 200));
    let cfg = FlowConfig::default();
    let header = JournalHeader::describe(&net, &cfg).expect("flow config serializes");

    let mut group = c.benchmark_group("serve_journal");
    group.sample_size(10);
    group.bench_function("append_fsync", |b| {
        let path = scratch_wal();
        let mut journal = FlowJournal::open(&path, &header)
            .expect("fresh journal")
            .journal;
        let mut seq = 0usize;
        b.iter(|| {
            journal.append(&sample_record(seq)).expect("appends");
            seq += 1;
        });
    });
    group.bench_function("recover_64_records", |b| {
        let path = scratch_wal();
        let mut journal = FlowJournal::open(&path, &header)
            .expect("fresh journal")
            .journal;
        for seq in 0..64 {
            journal.append(&sample_record(seq)).expect("appends");
        }
        drop(journal);
        b.iter(|| {
            let recovered = FlowJournal::open(&path, &header).expect("recovers");
            assert_eq!(recovered.records.len(), 64);
        });
    });
    group.finish();
}

fn bench_ladder(c: &mut Criterion) {
    let net = generate(&GeneratorConfig::sized("ladder", 9, 400));
    let data = GraphData::from_netlist(&net, None).expect("acyclic");
    let gcn_cfg = GcnConfig {
        embed_dims: vec![32, 32],
        fc_dims: vec![32],
        ..GcnConfig::default()
    };
    let model = MultiStageGcn::from_stages(
        vec![
            Gcn::new(&gcn_cfg, &mut gcnt_nn::seeded_rng(5)),
            Gcn::new(&gcn_cfg, &mut gcnt_nn::seeded_rng(6)),
        ],
        0.5,
    );

    let mut group = c.benchmark_group("serve_ladder");
    group.sample_size(10);
    // Each scenario pins the ladder to one rung: no pressure stays on
    // top, a poisoned cache lands on full-sparse, and a starvation budget
    // falls through to the unbudgeted first-stage floor.
    for (name, cap, poison) in [
        ("incremental", u64::MAX, false),
        ("full_sparse", u64::MAX, true),
        ("first_stage", 1, false),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let budget = Budget::with_cap(cap);
                classify_with_ladder_backed(
                    &model,
                    &data.tensors,
                    &data.features,
                    &budget,
                    poison,
                    &mut MatrixBackend::serial(),
                )
                .expect("ladder completes")
                .0
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_journal, bench_ladder);
criterion_main!(benches);
