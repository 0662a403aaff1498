//! What one stateless cascade pass may ask of the allocator.
//!
//! The row-tiled pass keeps two `n`-row buffers (`E_1`, `E_2` at the
//! paper's widths) and otherwise works in per-worker tile buffers, so the
//! bytes it requests are bounded by that workspace, not by the
//! `P·E`/`S·E`/`G`/`z`/head-activation matrices a whole-matrix pass
//! materialises per layer — each a fresh mapping the kernel zero-fills,
//! which is where `infer_b1_120k` used to spend most of its CPU. A counting
//! global allocator pins that: total bytes requested during the pass, and
//! the largest single request, which must stay below one `n × 128` matrix
//! (the final embedding the fused last layer never forms). This file holds
//! one test, so the process-wide counters see only its window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use gcn_testability::gcn::pass::TILE_ROWS;
use gcn_testability::gcn::{Gcn, GcnConfig, GraphData, MatrixBackend, MultiStageGcn};
use gcn_testability::netlist::{generate, GeneratorConfig};
use gcn_testability::nn::seeded_rng;
use gcn_testability::tensor::Budget;

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
fn a_stateless_pass_requests_little_more_than_its_workspace() {
    let net = generate(&GeneratorConfig::sized("alloc", 41, 20_000));
    let data = GraphData::from_netlist(&net, None).unwrap();
    let (t, x) = (&data.tensors, &data.features);
    let n = t.node_count();

    // The paper's shape, three stages; stage 0's median as the threshold
    // sends half the rows on, so later stages embed real halos.
    let cfg = GcnConfig::default();
    let stages: Vec<Gcn> = (0..3)
        .map(|s| Gcn::new(&cfg, &mut seeded_rng(70 + s)))
        .collect();
    let f32s = std::mem::size_of::<f32>();
    // What one worker's tile buffers come to over the pass: per layer step
    // the aggregate, `S·E` and the encoder output, per stage two head
    // activations at the widest layer.
    let widest = cfg.embed_dims.iter().chain(&cfg.fc_dims).max().unwrap();
    let worker_scratch: usize = stages
        .iter()
        .flat_map(|gcn| gcn.encoders())
        .map(|enc| 2 * enc.fan_in() + enc.fan_out())
        .chain([stages.len() * 2 * widest])
        .sum::<usize>()
        * TILE_ROWS
        * f32s;
    let mut p = stages[0].predict_proba(t, x).unwrap();
    p.sort_by(f32::total_cmp);
    let model = MultiStageGcn::from_stages(stages, p[n / 2]);

    COUNTING.store(true, Ordering::Relaxed);
    let probs =
        model.predict_proba_budgeted_with(t, x, &Budget::unlimited(), &mut MatrixBackend::serial());
    COUNTING.store(false, Ordering::Relaxed);
    assert_eq!(probs.unwrap().len(), n);

    let workspace = n * (cfg.embed_dims[0] + cfg.embed_dims[1]) * f32s;
    let csr = |m: &gcn_testability::tensor::CsrMatrix| {
        std::mem::size_of_val(m.indptr())
            + std::mem::size_of_val(m.indices())
            + std::mem::size_of_val(m.values())
    };
    let inputs = std::mem::size_of_val(x.as_slice()) + csr(t.pred()) + csr(t.succ());
    let (requested, largest) = (
        REQUESTED.load(Ordering::Relaxed),
        LARGEST.load(Ordering::Relaxed),
    );
    // The pass runs one worker per core, and the worker count is not
    // settable from here. Two workers' buffers fit the slack of the bound;
    // each core beyond two is allowed its own.
    let workers = std::thread::available_parallelism().map_or(1, |w| w.get());
    let bound = 2 * workspace + inputs + workers.saturating_sub(2) * worker_scratch;
    assert!(
        requested <= bound,
        "the pass requested {requested} bytes on {workers} workers; its workspace is \
         {workspace}, its inputs {inputs}, the bound {bound}"
    );
    let final_embedding = n * cfg.embed_dims[2] * f32s;
    assert!(
        largest < final_embedding,
        "one request of {largest} bytes: an n-row transient of {final_embedding} is back"
    );
}
