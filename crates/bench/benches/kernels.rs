//! Kernel micro-benches: the scalar reference GEMM row against the
//! register-blocked one, over the dense embed-layer shapes at the two
//! embedding widths the model actually uses (32 and 64). Every name is a
//! literal so the `kernels/*` group is fully covered by
//! `BENCH_baseline.json` (SA602).

use criterion::{criterion_group, criterion_main, Criterion};

use gcnt_tensor::{Kernel, Matrix};

/// Deterministic pseudo-random dense matrix (no RNG dependency needed —
/// the values only have to be non-trivial and reproducible).
fn dense(rows: usize, cols: usize) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
        *v = ((i * 2_654_435_761) % 1000) as f32 * 0.002 - 1.0;
    }
    m
}

fn bench_kernels(c: &mut Criterion) {
    // Rows of the 4k-node design these entries were baselined on
    // (`GeneratorConfig::sized("k", 11, 4_000)` yields 4024 nodes).
    let n = 4_024;

    let mut group = c.benchmark_group("kernels");
    group.sample_size(10);

    // The embed loop's dense step: aggregated activations × layer weights.
    let g32 = dense(n, 32);
    let w32 = dense(32, 32);
    group.bench_function("gemm_d32_scalar", |b| {
        b.iter(|| {
            g32.matmul_with_kernel(&w32, Kernel::Scalar)
                .expect("matmul")
        })
    });
    group.bench_function("gemm_d32_blocked", |b| {
        b.iter(|| {
            g32.matmul_with_kernel(&w32, Kernel::Blocked)
                .expect("matmul")
        })
    });

    let g64 = dense(n, 64);
    let w64 = dense(64, 64);
    group.bench_function("gemm_d64_scalar", |b| {
        b.iter(|| {
            g64.matmul_with_kernel(&w64, Kernel::Scalar)
                .expect("matmul")
        })
    });
    group.bench_function("gemm_d64_blocked", |b| {
        b.iter(|| {
            g64.matmul_with_kernel(&w64, Kernel::Blocked)
                .expect("matmul")
        })
    });

    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
