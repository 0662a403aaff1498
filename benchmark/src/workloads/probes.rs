//! Per-layer probes every workload runs on its own operands: the
//! `netlist` pipeline on its design config, the `tensor` kernels on its
//! adjacency, and the cascade pass taken apart call by call.

use gcnt_core::{GraphData, MatrixBackend, MultiStageGcn, PartitionedGraph};
use gcnt_netlist::{format, generate, logic_levels, GeneratorConfig, Scoap};
use gcnt_tensor::{ops, Matrix};

use super::err;
use crate::spec::Metrics;
use crate::stats::median;
use crate::trace::Tracer;

/// Repeats of each probe; the median is reported.
const REPEATS: usize = 3;

/// Median duration (ms) of the spans called `name`, with their count.
pub fn median_of(t: &Tracer, name: &str) -> (f64, usize) {
    let d = t.durations_ms(name);
    (median(&d), d.len())
}

/// Sets `metric` to the median duration of the spans called `span`, in the
/// unit the metric's name ends with (`_us`, else ms).
pub fn report_median(t: &Tracer, out: &mut Metrics, metric: &'static str, span: &str) {
    let (ms, n) = median_of(t, span);
    let scale = if metric.ends_with("_us") { 1e3 } else { 1.0 };
    out.set(metric, ms * scale, n);
}

/// `generate` → `format::write` → `format::read` → `logic_levels` →
/// `Scoap::compute` on `cfg`, each timed from outside.
pub fn netlist(t: &mut Tracer, cfg: &GeneratorConfig, out: &mut Metrics) -> Result<(), String> {
    for _ in 0..REPEATS {
        let net = t.time("netlist.generate", || generate(cfg));
        let text = t.time("netlist.write", || format::write(&net));
        let parsed = t
            .time("netlist.parse", || format::read(&text))
            .map_err(err)?;
        t.time("netlist.levels", || logic_levels(&parsed))
            .map_err(err)?;
        t.time("netlist.scoap", || Scoap::compute(&parsed))
            .map_err(err)?;
    }
    for (metric, span) in [
        ("netlist.generate_ms", "netlist.generate"),
        ("netlist.write_ms", "netlist.write"),
        // The traced op of some workloads parses too; every parse counts.
        ("netlist.parse_ms", "netlist.parse"),
        ("netlist.levels_ms", "netlist.levels"),
        ("netlist.scoap_ms", "netlist.scoap"),
    ] {
        report_median(t, out, metric, span);
    }
    Ok(())
}

/// Parts `MatrixBackend::auto` would shard into on this host.
pub fn auto_parts() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |c| c.get())
        .clamp(2, gcnt_core::backend::PARTITION_MAX_AUTO)
}

/// The sparse and dense kernels on the workload's own adjacency and a real
/// layer-3 input (`n × 64`, computed through the first two layers of the
/// first stage). `halo` is the row set `spmm_rows` is timed on.
pub fn tensor(
    t: &mut Tracer,
    model: &MultiStageGcn,
    data: &GraphData,
    halo: &[usize],
    out: &mut Metrics,
) -> Result<(), String> {
    let gcn = model.stages().first().ok_or("cascade has no stage")?;
    let (last, inner) = gcn.encoders().split_last().ok_or("stage has no encoder")?;
    let mut e = data.features.clone();
    for enc in inner {
        let g = data
            .tensors
            .aggregate_g(&e, gcn.w_pr(), gcn.w_su())
            .map_err(err)?;
        e = enc.forward(&g).map_err(err)?;
        ops::relu_in_place(&mut e);
    }
    let pred = data.tensors.pred();
    let (n, k) = e.shape();
    for _ in 0..REPEATS {
        t.time("tensor.spmm", || pred.spmm(&e)).map_err(err)?;
        let pg = t
            .time("tensor.part_build", || {
                PartitionedGraph::new(&data.tensors, auto_parts())
            })
            .map_err(err)?;
        t.time("tensor.part_spmm", || pg.pred().spmm(&e))
            .map_err(err)?;
        t.time("tensor.gemm", || e.matmul_bias(last.weight(), last.bias()))
            .map_err(err)?;
        t.time("tensor.spmm_rows", || pred.spmm_rows(&e, halo))
            .map_err(err)?;
    }
    // `MatrixBackend::auto` builds a partitioned graph inside some traced
    // ops as well; every build counts.
    for (metric, span) in [
        ("tensor.spmm_ms", "tensor.spmm"),
        ("tensor.part_spmm_ms", "tensor.part_spmm"),
        ("tensor.part_build_ms", "tensor.part_build"),
        ("tensor.gemm_ms", "tensor.gemm"),
        ("tensor.spmm_rows_us", "tensor.spmm_rows"),
    ] {
        report_median(t, out, metric, span);
    }
    // Computed, not measured, traffic: CSR structure read once, one dense
    // row of `k` floats gathered per stored entry, one output row written.
    let nnz = pred.nnz();
    let bytes = nnz * 8 + (n + 1) * 8 + nnz * k * 4 + n * k * 4;
    let flops = 2 * n * k * last.fan_out();
    for (metric, span, work) in [
        ("tensor.spmm_gbytes_s", "tensor.spmm", bytes),
        ("tensor.gemm_gflops", "tensor.gemm", flops),
    ] {
        let (ms, reps) = median_of(t, span);
        out.set(metric, work as f64 / 1e9 / (ms / 1e3).max(1e-9), reps);
    }
    Ok(())
}

/// One cascade inference taken apart: per stage and layer
/// `MatrixBackend::aggregate` → `Linear::forward` → `relu_in_place`, then
/// `Mlp::predict` and `softmax_col`, combined by the cascade's filter
/// rule. Mirrors `MultiStageGcn::predict_proba_budgeted_with`, whose
/// result the caller compares this one with.
pub fn cascade_by_parts(
    t: &mut Tracer,
    model: &MultiStageGcn,
    data: &GraphData,
    backend: &mut MatrixBackend,
) -> Result<Vec<f32>, String> {
    let pass = t.enter("core.pass");
    let n = data.tensors.node_count();
    let x = &data.features;
    let mut result = vec![0.0f32; n];
    let mut alive = vec![true; n];
    let stages = model.stages();
    for (s, gcn) in stages.iter().enumerate() {
        let mut e: Option<Matrix> = None;
        for enc in gcn.encoders() {
            let cur = e.as_ref().unwrap_or(x);
            let g = t
                .time("core.aggregate", || {
                    backend.aggregate(&data.tensors, cur, gcn.w_pr(), gcn.w_su())
                })
                .map_err(err)?;
            let mut z = t
                .time("nn.linear_forward", || enc.forward(&g))
                .map_err(err)?;
            t.time("tensor.relu", || ops::relu_in_place(&mut z));
            // Freeing a layer's matrices is part of what the pass costs.
            t.time("core.free", || {
                drop(g);
                e = Some(z);
            });
        }
        let emb = e.as_ref().unwrap_or(x);
        let logits = t
            .time("nn.mlp_predict", || gcn.head().predict(emb))
            .map_err(err)?;
        let probs = t.time("tensor.softmax", || ops::softmax_col(&logits, 1));
        let last = s + 1 == stages.len();
        for i in 0..n {
            if !alive[i] {
                continue;
            }
            if last {
                result[i] = probs[i];
            } else if probs[i] < model.filter_threshold() {
                alive[i] = false;
                result[i] = probs[i].min(0.49);
            }
        }
        t.time("core.free", || drop((e, logits, probs)));
    }
    t.exit(pass);
    Ok(result)
}

/// The probes a workload without its own by-parts op runs on one of its
/// graphs: the cascade by parts (checked against the one-call result),
/// then the kernels and the netlist pipeline.
pub fn layers(
    t: &mut Tracer,
    model: &MultiStageGcn,
    data: &GraphData,
    halo: &[usize],
    cfg: &GeneratorConfig,
    out: &mut Metrics,
) -> Result<(), String> {
    let mut backend = MatrixBackend::auto(&data.tensors);
    let by_parts = cascade_by_parts(t, model, data, &mut backend)?;
    let one_call = model
        .predict_proba(&data.tensors, &data.features)
        .map_err(err)?;
    if by_parts != one_call {
        return Err("by-parts pass differs from the one-call result".to_string());
    }
    report_cascade(t, out);
    tensor(t, model, data, halo, out)?;
    netlist(t, cfg, out)
}

/// Reports the by-parts pass(es) recorded in `t`: each metric is the
/// per-pass total of its calls, the median over passes.
pub fn report_cascade(t: &Tracer, out: &mut Metrics) {
    let (pass_ms, passes) = median_of(t, "core.pass");
    let per_pass = |name: &str| median(&per_parent_totals(t, "core.pass", name));
    out.set("core.pass_ms", pass_ms, passes);
    out.set("core.aggregate_ms", per_pass("core.aggregate"), passes);
    out.set(
        "nn.linear_forward_ms",
        per_pass("nn.linear_forward"),
        passes,
    );
    out.set("nn.mlp_predict_ms", per_pass("nn.mlp_predict"), passes);
    out.set("tensor.relu_ms", per_pass("tensor.relu"), passes);
    out.set("tensor.softmax_ms", per_pass("tensor.softmax"), passes);
    out.set("core.free_ms", per_pass("core.free"), passes);
}

/// For every span called `parent`, the summed duration (ms) of its direct
/// children called `child`.
pub fn per_parent_totals(t: &Tracer, parent: &str, child: &str) -> Vec<f64> {
    let spans = t.spans();
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == parent)
        .map(|(id, _)| {
            spans
                .iter()
                .filter(|c| c.parent == Some(id) && c.name == child)
                .map(|c| c.ms())
                .sum()
        })
        .collect()
}
