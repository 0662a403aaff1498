//! The four workloads and what they share: the measurement window, the
//! design generator, and the generic per-layer probes.

pub mod flow;
pub mod infer;
pub mod probes;
pub mod serve;
pub mod train;

use std::time::Instant;

use gcnt_netlist::{generate, GeneratorConfig, Netlist};

use crate::alloc;
use crate::procfs::{CpuSample, MemWatch};
use crate::spec::{mix, Metrics, MIN_WINDOW_OPS};
use crate::stats::median;
use crate::trace::Tracer;

/// Every layer's error becomes the text of a failed op.
pub(crate) fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// What one untraced measurement window observed.
#[derive(Debug, Default)]
pub struct Window {
    /// Wall time of every completed op, in ms.
    pub samples_ms: Vec<f64>,
    pub attempted: u64,
    /// Ops that errored, were refused, or failed their output check.
    pub failed: u64,
    /// Window length: first op start to last op end.
    pub elapsed_s: f64,
    pub first_error: Option<String>,
}

impl Window {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }
}

/// A workload after set-up (warm-up op included), ready to be measured.
/// Dropping it stops whatever set-up started.
pub trait Workload {
    /// Runs ops back to back for `seconds` with tracing off.
    fn measure(&mut self, seconds: f64, peak: &mut MemWatch) -> Window;

    /// The traced run: a few ops timed whole and by parts, then the layer
    /// probes. Returns the number of failed checks' descriptions.
    fn trace(&mut self, seconds: f64, tracer: &mut Tracer, out: &mut Metrics)
        -> Result<(), String>;
}

/// Sets the named workload up from `seed`.
///
/// # Errors
///
/// An unknown name, an unreadable fixture, or a failed warm-up op.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        infer::NAME => Box::new(infer::Infer::setup(seed)?),
        flow::NAME => Box::new(flow::Flow::setup(seed)?),
        train::NAME => Box::new(train::Train::setup(seed)?),
        serve::NAME => Box::new(serve::Serve::setup(seed)?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// The single-caller window: `run` then `check` op after op until
/// `seconds` have passed and [`MIN_WINDOW_OPS`] ops completed. Only `run`
/// is timed as the op; the (cheap) `check` runs inside the window but
/// outside the sample.
pub fn batch_window<O>(
    seconds: f64,
    peak: &mut MemWatch,
    mut run: impl FnMut(usize) -> Result<O, String>,
    mut check: impl FnMut(usize, &O) -> Result<(), String>,
) -> Window {
    let mut w = Window::default();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < seconds || i < MIN_WINDOW_OPS {
        let t0 = Instant::now();
        let result = run(i);
        let op_s = t0.elapsed().as_secs_f64();
        w.attempted += 1;
        match result.and_then(|out| check(i, &out)) {
            Ok(()) => w.samples_ms.push(op_s * 1e3),
            Err(e) => w.fail(format!("op {i}: {e}")),
        }
        peak.sample();
        i += 1;
    }
    w.elapsed_s = start.elapsed().as_secs_f64();
    w
}

/// How many ops a traced run times, given the warm-up op took `warm_s`:
/// each is run whole and by parts (≈ 2.5 op times), and the count is kept
/// within `seconds` and between 1 and 3.
pub fn traced_ops(seconds: f64, warm_s: f64) -> usize {
    ((seconds / (2.5 * warm_s.max(1e-3))) as usize).clamp(1, 3)
}

/// Variant `k` of the seed-derived design for workload stream `stream`.
pub fn design_config(base: GeneratorConfig, seed: u64, stream: u64, k: usize) -> GeneratorConfig {
    GeneratorConfig {
        seed: mix(seed, stream * 1000 + k as u64),
        name: format!("{}_v{k}", base.name),
        ..base
    }
}

pub fn designs(base: &GeneratorConfig, seed: u64, stream: u64, count: usize) -> Vec<Netlist> {
    (0..count)
        .map(|k| generate(&design_config(base.clone(), seed, stream, k)))
        .collect()
}

/// Up to `count` distinct node indices below `n`, derived from `seed`,
/// sorted.
pub fn sample_nodes(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut picked = std::collections::BTreeSet::new();
    for i in 0..count as u64 * 4 {
        if picked.len() == count.min(n) {
            break;
        }
        picked.insert((mix(seed, i) % n.max(1) as u64) as usize);
    }
    picked.into_iter().collect()
}

/// Process accounting over the untraced ops of a traced run: CPU split,
/// minor faults and heap bytes requested, per op.
pub struct ProcAccount {
    ops: u64,
    cpu: CpuSample,
    alloc_bytes: u64,
    mem: MemWatch,
}

impl Default for ProcAccount {
    fn default() -> Self {
        ProcAccount {
            ops: 0,
            cpu: CpuSample::default(),
            alloc_bytes: 0,
            mem: MemWatch::start(),
        }
    }
}

impl ProcAccount {
    /// Runs `f`, which completes `ops` ops, under the counters.
    pub fn during<T>(&mut self, ops: u64, f: impl FnOnce() -> T) -> T {
        let bytes0 = alloc::requested_bytes();
        self.mem.restart();
        let cpu0 = CpuSample::now();
        let out = f();
        let used = CpuSample::now().since(cpu0);
        self.cpu.user_ms += used.user_ms;
        self.cpu.system_ms += used.system_ms;
        self.cpu.minor_faults += used.minor_faults;
        self.alloc_bytes += alloc::requested_bytes() - bytes0;
        self.mem.sample();
        self.ops += ops;
        out
    }

    pub fn report(&self, out: &mut Metrics) {
        let ops = self.ops.max(1) as f64;
        let n = self.ops as usize;
        out.set(
            "proc.sys_cpu_share",
            self.cpu.system_ms / self.cpu.total_ms().max(1e-9),
            n,
        );
        out.set(
            "proc.minor_faults_per_op",
            self.cpu.minor_faults as f64 / ops,
            n,
        );
        out.set(
            "proc.alloc_mb_per_op",
            self.alloc_bytes as f64 / 1e6 / ops,
            n,
        );
        out.set(
            "proc.peak_rss_mb",
            self.mem.peak_rss_mb(),
            self.mem.intervals(),
        );
    }
}

/// Whether `got` is within `share` of the recorded `golden` count (and
/// always within one).
pub fn near_golden(got: usize, golden: usize, share: f64) -> Result<(), String> {
    let slack = (golden as f64 * share).ceil().max(1.0) as usize;
    if got.abs_diff(golden) > slack {
        return Err(format!("count {got}, golden {golden} ± {slack}"));
    }
    Ok(())
}

/// Share of the by-parts ops' wall clock spent inside a named layer call:
/// one minus the self time of the `op.parts` spans and of the `grouping`
/// spans (spans that only group layer calls), over the `op.parts` time.
pub fn attributed_share(t: &Tracer, grouping: &[&str]) -> f64 {
    let selfs = crate::trace::self_times_ms(t.spans());
    let (mut unattributed, mut total) = (0.0, 0.0);
    for (s, self_ms) in t.spans().iter().zip(&selfs) {
        if s.name == "op.parts" {
            unattributed += self_ms;
            total += s.ms();
        } else if grouping.contains(&s.name) {
            unattributed += self_ms;
        }
    }
    1.0 - unattributed / total
}

/// `trace.overhead_ratio`: the median by-parts op (`op.parts` spans) over
/// the median untraced op of the same run.
pub fn report_overhead(t: &Tracer, whole_ms: &[f64], out: &mut Metrics) {
    let parts = t.durations_ms("op.parts");
    out.set(
        "trace.overhead_ratio",
        median(&parts) / median(whole_ms).max(1e-9),
        parts.len(),
    );
}
