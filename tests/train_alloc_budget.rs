//! What one training step may ask of the allocator.
//!
//! `masked_loss_grads` keeps `E_1..E_{D-1}` and two input-gradient
//! matrices at `n` rows and otherwise works in tile buffers, so the bytes
//! it requests are bounded by those, a few per-row loss vectors and the
//! model-sized gradients — not by the `P·E`/`S·E`/`G`/`z` and head
//! activations a whole-matrix step caches per layer (about 300 MB per
//! 20k-node graph at the paper's widths). A counting global
//! allocator pins that: total bytes requested during the step, and the
//! largest single request, which must stay below one `n × 128` matrix (the
//! head's input, which exists only a tile at a time). This file holds one
//! test, so the process-wide counters see only its window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use gcn_testability::gcn::pass::TILE_ROWS;
use gcn_testability::gcn::train::masked_loss_grads;
use gcn_testability::gcn::{Gcn, GcnConfig, GraphData};
use gcn_testability::netlist::{generate, GeneratorConfig};
use gcn_testability::nn::seeded_rng;

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static REQUESTED: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn record(bytes: usize) {
    // Statistics only: nothing is published through these.
    if COUNTING.load(Ordering::Relaxed) {
        REQUESTED.fetch_add(bytes, Ordering::Relaxed);
        LARGEST.fetch_max(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every call delegates to the `System` allocator unchanged; the
// only extra work is bumping two counters, so `GlobalAlloc`'s
// layout/pointer contracts hold exactly as `System` upholds them.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: `layout` is forwarded to `System.alloc` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    // SAFETY: `layout` is forwarded to `System.alloc_zeroed` untouched.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr`/`layout` came from this allocator, i.e. from `System`,
    // and `new_size` is forwarded untouched. Only growth is new memory.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: `ptr`/`layout` came from `alloc`/`alloc_zeroed`/`realloc`
    // above, which returned them from `System` — what `System.dealloc`
    // expects.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_training_step_requests_little_more_than_what_it_keeps() {
    let net = generate(&GeneratorConfig::sized("alloc", 41, 20_000));
    let labels = net.nodes().map(|v| u8::from(v.index() % 9 == 0)).collect();
    let data = GraphData::from_netlist(&net, None)
        .unwrap()
        .with_labels(labels);
    let n = data.node_count();
    let mask: Vec<usize> = (0..n).collect();
    let cfg = GcnConfig::default();
    let gcn = Gcn::new(&cfg, &mut seeded_rng(3));

    COUNTING.store(true, Ordering::Relaxed);
    let step = masked_loss_grads(&gcn, &data, &mask, &[1.0, 8.0]);
    COUNTING.store(false, Ordering::Relaxed);
    let (_, grads, preds) = step.unwrap();
    assert!(grads.is_finite());
    assert_eq!(preds.len(), n);

    let (f32s, words) = (std::mem::size_of::<f32>(), std::mem::size_of::<usize>());
    let [k1, k2, k3] = [cfg.embed_dims[0], cfg.embed_dims[1], cfg.embed_dims[2]];
    // Kept at n rows: E_1 and E_2, dG_3 (as wide as E_2) and dG_2 (as E_1).
    let kept = 2 * n * (k1 + k2) * f32s;
    // Per row: the row list the first layers run on, a mask flag, a loss
    // term and a prediction; per mask entry a label and a prediction.
    let per_row = n * (words + 1 + 8 + words) + mask.len() * 2 * words;
    // The gradients, and every weight transposed once.
    let params: usize = gcn.param_lens().iter().sum::<usize>() * 2 * f32s;
    // Tile buffers: the step's (`P·E`, `S·E`, `G`, the head's activations,
    // two gradient tiles) and, per worker of the first layers, the layer
    // step's (aggregate, `S·E`, encoder output).
    let widest = cfg.embed_dims.iter().chain(&cfg.fc_dims).max().unwrap();
    let head: usize = k3 + cfg.fc_dims.iter().sum::<usize>() + cfg.classes;
    let step_tiles = (3 * k2 + head + 2 * widest) * TILE_ROWS * f32s;
    let layer_tiles = (2 * k2 + k2) * TILE_ROWS * f32s;
    let workers = std::thread::available_parallelism().map_or(1, |w| w.get());
    // Slack: as much again as the step's inputs, the features and both
    // adjacency CSRs, which it reads but never copies.
    let (t, x) = (&data.tensors, &data.features);
    let csr = |m: &gcn_testability::tensor::CsrMatrix| {
        std::mem::size_of_val(m.indptr())
            + std::mem::size_of_val(m.indices())
            + std::mem::size_of_val(m.values())
    };
    let inputs = std::mem::size_of_val(x.as_slice()) + csr(t.pred()) + csr(t.succ());
    let bound = kept + per_row + params + step_tiles + workers * layer_tiles + inputs;

    let (requested, largest) = (
        REQUESTED.load(Ordering::Relaxed),
        LARGEST.load(Ordering::Relaxed),
    );
    assert!(
        requested <= bound,
        "the step requested {requested} bytes on {workers} workers; it keeps {kept}, \
         the bound is {bound}"
    );
    let head_input = n * k3 * f32s;
    assert!(
        largest < head_input,
        "one request of {largest} bytes: an n-row transient of {head_input} is back"
    );
}
