//! `all` (every workload untraced then traced, in child processes, as the
//! driver runs them) and `compare` (two result files against the bounds
//! of `BENCHMARK.json`).

use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use crate::fixture::package_dir;
use crate::spec::{as_array, as_f64, field, spec, MetricDecl};
use crate::stats::{median, quartile_spread};

/// How a metric of one workload compares between two result files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// A side's own sets differ by more than the bound: no call possible.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Largest minus smallest value as a share of the median; 0 for fewer
/// than two values.
fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    (hi - lo) / m.abs()
}

/// The rule: unresolved when either side's sets spread wider than the
/// bound; regressed when the candidate's median is worse than the
/// baseline's by more than the bound; otherwise ok.
pub fn verdict(decl: &MetricDecl, baseline: &[f64], candidate: &[f64]) -> Verdict {
    let bound = decl.bound.unwrap_or(0.0);
    if spread(baseline) > bound || spread(candidate) > bound {
        return Verdict::Unresolved;
    }
    let (base, cand) = (median(baseline), median(candidate));
    let worse_by = if decl.lower_is_better {
        cand - base
    } else {
        base - cand
    };
    if worse_by > bound * base.abs() {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// `values[workload][metric]` of every set in a results file.
fn load_sets(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let v: Value = text.parse().map_err(|e| format!("{path}: {e}"))?;
    let sets = field(&v, "sets")
        .and_then(as_array)
        .ok_or_else(|| format!("{path}: no `sets` list"))?;
    if sets.is_empty() {
        return Err(format!("{path}: no sets"));
    }
    Ok(sets.to_vec())
}

fn values_of(sets: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    sets.iter()
        .filter_map(|s| field(field(s, workload)?, metric).and_then(as_f64))
        .collect()
}

/// Prints one row per workload × end-to-end metric; fails if any row
/// regressed.
pub fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let (base_sets, cand_sets) = (load_sets(a)?, load_sets(b)?);
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>7}  verdict",
        "workload", "metric", "baseline", "candidate", "bound"
    );
    let mut regressed = 0usize;
    for workload in &spec().workloads {
        for decl in &spec().end_to_end {
            let base = values_of(&base_sets, workload, &decl.name);
            let cand = values_of(&cand_sets, workload, &decl.name);
            if base.is_empty() || cand.is_empty() {
                return Err(format!("{workload}/{}: missing from a file", decl.name));
            }
            let v = verdict(decl, &base, &cand);
            regressed += usize::from(v == Verdict::Regressed);
            println!(
                "{workload:<16} {:<14} {:>14.4} {:>14.4} {:>6.0}%  {}",
                decl.name,
                median(&base),
                median(&cand),
                decl.bound.unwrap_or(0.0) * 100.0,
                v.label()
            );
        }
    }
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs this binary's `run` in a child process, echoing its output, and
/// returns the parsed result line.
fn run_child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    let result: Value = last
        .parse()
        .map_err(|e| format!("{workload}: no result line ({e})"))?;
    let correct = matches!(field(&result, "correct"), Some(Value::Bool(true)));
    if !output.status.success() || !correct {
        return Err(format!("{workload}: run failed its checks"));
    }
    Ok(result)
}

fn metric_values(result: &Value) -> Vec<(String, Value)> {
    field(result, "metrics")
        .and_then(Value::as_object)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), field(m, "value")?.clone())))
        .collect()
}

/// `all`: `sets` times, every workload untraced then traced. Writes the
/// sets to `out` (default `benchmark/out/results.json`) and, with two or
/// more sets, checks that they agree within the bounds.
pub fn run_all(
    seed: u64,
    seconds: f64,
    sets: usize,
    out: Option<&str>,
) -> Result<ExitCode, String> {
    let mut recorded = Vec::with_capacity(sets);
    for _ in 0..sets.max(1) {
        let mut set = Vec::new();
        for workload in &spec().workloads {
            let mut values = metric_values(&run_child(workload, seed, seconds, false)?);
            values.extend(metric_values(&run_child(workload, seed, seconds, true)?));
            set.push((workload.clone(), Value::Object(values)));
        }
        recorded.push(Value::Object(set));
    }
    let file = Value::Object(vec![
        (
            "seed".to_string(),
            Value::Number(serde_json::Number::U(seed)),
        ),
        (
            "seconds".to_string(),
            Value::Number(serde_json::Number::F(seconds)),
        ),
        ("sets".to_string(), Value::Array(recorded)),
    ]);
    let default_out = package_dir("out").join("results.json");
    let path = out.map_or(default_out, std::path::PathBuf::from);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&path, file.render_pretty() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("# results written to {}", path.display());
    let path = path.to_string_lossy();
    compare_files(&path, &path)
}

/// `spread`: the acceptance check on steadiness. Runs every workload
/// untraced `runs` times, each with another seed, and prints per
/// end-to-end metric the distance between the first and third quartile as
/// a share of the median, beside the third of the bound it should stay
/// under. Fails if a spread (other than `setup_s`'s) exceeds its bound.
pub fn run_spread(seed: u64, seconds: f64, runs: usize) -> Result<ExitCode, String> {
    let mut too_wide = 0usize;
    let mut rows = Vec::new();
    for workload in &spec().workloads {
        let mut per_metric: Vec<Vec<f64>> = vec![Vec::new(); spec().end_to_end.len()];
        for k in 0..runs as u64 {
            let result = run_child(workload, seed + k, seconds, false)?;
            let values = metric_values(&result);
            for (decl, samples) in spec().end_to_end.iter().zip(&mut per_metric) {
                let value = values
                    .iter()
                    .find(|(name, _)| *name == decl.name)
                    .and_then(|(_, v)| as_f64(v))
                    .ok_or_else(|| format!("{workload}: no {}", decl.name))?;
                samples.push(value);
            }
        }
        for (decl, samples) in spec().end_to_end.iter().zip(&per_metric) {
            let bound = decl.bound.unwrap_or(0.0);
            let spread = quartile_spread(samples);
            let wide = spread > bound && decl.name != "setup_s";
            too_wide += usize::from(wide);
            rows.push(format!(
                "{workload:<16} {:<14} {:>14.4} {:>9.2}% {:>9.2}%  {}",
                decl.name,
                median(samples),
                spread * 100.0,
                bound / 3.0 * 100.0,
                if wide {
                    "TOO WIDE"
                } else if spread > bound / 3.0 {
                    "above a third of the bound"
                } else {
                    "steady"
                }
            ));
        }
    }
    println!(
        "{:<16} {:<14} {:>14} {:>10} {:>10}",
        "workload", "metric", "median", "spread", "bound/3"
    );
    for row in rows {
        println!("{row}");
    }
    Ok(if too_wide == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(lower_is_better: bool, bound: f64) -> MetricDecl {
        MetricDecl {
            name: "m".to_string(),
            unit: "ms".to_string(),
            lower_is_better,
            bound: Some(bound),
        }
    }

    #[test]
    fn within_the_bound_is_ok_either_direction() {
        assert_eq!(verdict(&decl(true, 0.10), &[100.0], &[109.0]), Verdict::Ok);
        assert_eq!(verdict(&decl(true, 0.10), &[100.0], &[50.0]), Verdict::Ok);
        assert_eq!(verdict(&decl(false, 0.10), &[100.0], &[91.0]), Verdict::Ok);
    }

    #[test]
    fn worse_by_more_than_the_bound_regresses() {
        assert_eq!(
            verdict(&decl(true, 0.10), &[100.0], &[111.0]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&decl(false, 0.10), &[100.0], &[89.0]),
            Verdict::Regressed
        );
        // Medians of the sets decide, not single runs.
        assert_eq!(
            verdict(
                &decl(true, 0.10),
                &[100.0, 101.0, 99.0],
                &[112.0, 113.0, 111.0]
            ),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_side_noisier_than_the_bound_is_unresolved() {
        assert_eq!(
            verdict(&decl(true, 0.10), &[100.0, 120.0], &[100.0, 101.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&decl(true, 0.10), &[100.0, 101.0], &[150.0, 200.0]),
            Verdict::Unresolved
        );
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
