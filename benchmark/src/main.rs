//! `gcnt-benchmark` — the repo's benchmark: four workloads, measured end to
//! end with tracing off and layer by layer in a separate traced run.
//!
//! ```text
//! gcnt-benchmark run --workload W --seed N --seconds S --trace 0|1
//! gcnt-benchmark all [--seed N] [--seconds S] [--sets K] [--out sets.json]
//! gcnt-benchmark compare A.json [B.json]
//! gcnt-benchmark spread [--seed N] [--seconds S] [--runs K]
//! gcnt-benchmark fixture | golden
//! ```
//!
//! `run` prints one JSON object as its last stdout line; see
//! `benchmark/README.md` for every metric.

mod alloc;
mod compare;
mod fixture;
mod golden;
mod procfs;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;

use procfs::{CpuSample, MemWatch};
use spec::{spec, MetricDecl, Metrics, DEFAULT_SEED, SETUP_REPEATS, TAIL_PERCENTILE};
use stats::{median, percentile, supported_percentile};
use trace::Tracer;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first() else {
        return Err(
            "usage: gcnt-benchmark run|all|compare|spread|fixture|golden (see benchmark/README.md)"
                .to_string(),
        );
    };
    let (positional, options) = split_args(&args[1..]);
    match command.as_str() {
        "run" => {
            let workload = options
                .get("workload")
                .ok_or("run needs --workload (see BENCHMARK.json for the names)")?;
            let run = Run {
                workload,
                seed: opt(&options, "seed", DEFAULT_SEED)?,
                seconds: opt(&options, "seconds", spec().run_seconds as f64)?,
                traced: opt::<u8>(&options, "trace", 0)? != 0,
            };
            let result = run.execute()?;
            println!("{}", result.json_line());
            Ok(if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "all" => compare::run_all(
            opt(&options, "seed", DEFAULT_SEED)?,
            opt(&options, "seconds", spec().run_seconds as f64)?,
            opt(&options, "sets", 1usize)?,
            options.get("out").map(String::as_str),
        ),
        "compare" => {
            let a = positional.first().ok_or("compare needs a results file")?;
            compare::compare_files(a, positional.get(1).unwrap_or(a))
        }
        "spread" => compare::run_spread(
            opt(&options, "seed", DEFAULT_SEED)?,
            opt(&options, "seconds", spec().run_seconds as f64)?,
            opt(&options, "runs", 10usize)?,
        ),
        "fixture" => fixture::regenerate().map(|()| ExitCode::SUCCESS),
        "golden" => golden::regenerate().map(|()| ExitCode::SUCCESS),
        other => Err(format!("unknown command '{other}'")),
    }
}

fn split_args(args: &[String]) -> (Vec<String>, HashMap<String, String>) {
    let mut positional = Vec::new();
    let mut options = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--") {
            Some(key) => {
                options.insert(key.to_string(), it.next().cloned().unwrap_or_default());
            }
            None => positional.push(arg.clone()),
        }
    }
    (positional, options)
}

fn opt<T: std::str::FromStr>(
    options: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match options.get(key) {
        Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read '{v}'")),
        None => Ok(default),
    }
}

struct Run<'a> {
    workload: &'a str,
    seed: u64,
    seconds: f64,
    traced: bool,
}

/// What one run reports: the contract's result line plus, for people,
/// every metric with its unit and sample count.
pub struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Declared metrics in declaration order, with value and sample count.
    metrics: Vec<(&'static MetricDecl, f64, usize)>,
}

impl RunResult {
    fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(decl, value, _)| {
                format!(
                    "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                    decl.name, decl.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

impl Run<'_> {
    fn execute(&self) -> Result<RunResult, String> {
        if !spec().workloads.iter().any(|w| w == self.workload) {
            return Err(format!(
                "unknown workload '{}' (BENCHMARK.json declares {})",
                self.workload,
                spec().workloads.join(", ")
            ));
        }
        if self.seconds.is_nan() || self.seconds <= 0.0 {
            return Err("--seconds must be positive".to_string());
        }
        println!(
            "# {} seed {} seconds {} trace {} cores {}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.traced),
            std::thread::available_parallelism().map_or(1, |c| c.get()),
        );
        let result = if self.traced {
            self.traced_run()?
        } else {
            self.untraced_run()?
        };
        for (decl, value, samples) in &result.metrics {
            println!(
                "{:<32} {value:>16.6} {:<8} n={samples}",
                decl.name, decl.unit
            );
        }
        Ok(result)
    }

    /// Sets up [`SETUP_REPEATS`] times (the median is `setup_s`), then
    /// measures one window with tracing off.
    fn untraced_run(&self) -> Result<RunResult, String> {
        let mut setups = Vec::with_capacity(SETUP_REPEATS);
        let mut workload = None;
        for _ in 0..SETUP_REPEATS {
            drop(workload.take());
            let t0 = Instant::now();
            workload = Some(workloads::setup(self.workload, self.seed)?);
            setups.push(t0.elapsed().as_secs_f64());
        }
        let mut workload = workload.ok_or("no set-up ran")?;

        let mut peak = MemWatch::start();
        let cpu0 = CpuSample::now();
        let window = workload.measure(self.seconds, &mut peak);
        let cpu = CpuSample::now().since(cpu0);
        drop(workload);

        if let Some(e) = &window.first_error {
            eprintln!("first failure: {e}");
        }
        let ops = window.samples_ms.len();
        if ops == 0 {
            return Err(format!(
                "no op completed: {}",
                window.first_error.unwrap_or_default()
            ));
        }
        if ops <= 32 {
            println!("# op samples (ms): {:.1?}", window.samples_ms);
        }
        let mut m = Metrics::default();
        m.set("setup_s", median(&setups), setups.len());
        m.set("op_p50_ms", median(&window.samples_ms), ops);
        // The tail is reported only where at least ten samples lie beyond
        // it; a window of a few batch ops has no tail, only a median.
        let tail = supported_percentile(ops, &[TAIL_PERCENTILE]);
        let tail_ms = tail.map_or(median(&window.samples_ms), |p| {
            percentile(&window.samples_ms, p)
        });
        m.set("op_tail_ms", tail_ms, ops);
        m.set("ops_per_s", ops as f64 / window.elapsed_s, ops);
        m.set("cpu_ms_per_op", cpu.total_ms() / ops as f64, ops);
        m.set("peak_heap_mb", peak.peak_heap_mb(), peak.intervals());
        println!(
            "# op_tail_ms is p{}; peak RSS {:.1} MB; fail_ratio {} ({} of {})",
            tail.unwrap_or(50),
            peak.peak_rss_mb(),
            window.failed as f64 / window.attempted as f64,
            window.failed,
            window.attempted
        );
        Ok(RunResult {
            correct: window.failed == 0,
            attempted: window.attempted,
            failed: window.failed,
            metrics: declared(&spec().end_to_end, &m, true)?,
        })
    }

    /// Sets up once, runs the workload's traced ops and probes, and writes
    /// the spans to `benchmark/out/<workload>.trace.json`.
    fn traced_run(&self) -> Result<RunResult, String> {
        let mut workload = workloads::setup(self.workload, self.seed)?;
        alloc::arm();
        let mut tracer = Tracer::new(Instant::now(), 0);
        let mut m = Metrics::default();
        let outcome = workload.trace(self.seconds, &mut tracer, &mut m);
        drop(workload);

        let dir = fixture::package_dir("out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.trace.json", self.workload));
        std::fs::write(&path, tracer.to_chrome_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "# {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
        if let Err(e) = &outcome {
            eprintln!("first failure: {e}");
        }
        Ok(RunResult {
            correct: outcome.is_ok(),
            attempted: 1,
            failed: u64::from(outcome.is_err()),
            metrics: declared(&spec().per_layer, &m, false)?,
        })
    }
}

/// Lines `measured` up with the declaration. Every measured name must be
/// declared; a declared layer metric the workload never touches reads 0,
/// a missing end-to-end metric is an error.
fn declared(
    decls: &'static [MetricDecl],
    measured: &Metrics,
    required: bool,
) -> Result<Vec<(&'static MetricDecl, f64, usize)>, String> {
    if let Some(stray) = measured
        .names()
        .find(|n| !decls.iter().any(|d| d.name == *n))
    {
        return Err(format!(
            "metric '{stray}' is not declared in BENCHMARK.json"
        ));
    }
    decls
        .iter()
        .map(|decl| match measured.get(&decl.name) {
            Some((value, _)) if !value.is_finite() => {
                Err(format!("metric '{}' is {value}", decl.name))
            }
            Some((value, samples)) => Ok((decl, value, samples)),
            None if required => Err(format!("metric '{}' was not measured", decl.name)),
            None => Ok((decl, 0.0, 0)),
        })
        .collect()
}
