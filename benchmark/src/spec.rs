//! What the benchmark declares: `BENCHMARK.json` is the single source of
//! metric names, units, directions and bounds; this module parses it and
//! pins the few values that file has no key for.

use std::sync::OnceLock;

use serde_json::Value;

/// The repo's `BENCHMARK.json`, compiled in so the declared metric set
/// and the emitted one cannot drift apart.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Seed of the recorded numbers and of `golden.json`.
pub const DEFAULT_SEED: u64 = 20190602;

/// Times a run sets up before measuring; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// A measurement window also runs until this many ops completed.
pub const MIN_WINDOW_OPS: usize = 3;

/// The tail percentile `op_tail_ms` reports when the sample supports it.
pub const TAIL_PERCENTILE: u32 = 95;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline median the metric may worsen by; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

/// Looks `key` up in a JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

pub fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::String(s) => Some(s),
        _ => None,
    }
}

pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Number(n) => Some(n.as_f64()),
        _ => None,
    }
}

pub fn as_array(v: &Value) -> Option<&[Value]> {
    match v {
        Value::Array(a) => Some(a),
        _ => None,
    }
}

fn metric_decls(v: &Value, key: &str) -> Result<Vec<MetricDecl>, String> {
    let list = field(v, key)
        .and_then(as_array)
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))?;
    list.iter()
        .map(|m| {
            let text = |k: &str| {
                field(m, k)
                    .and_then(as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: a `{key}` entry lacks `{k}`"))
            };
            Ok(MetricDecl {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound: field(m, "bound").and_then(as_f64),
            })
        })
        .collect()
}

fn parse(text: &str) -> Result<Spec, String> {
    let v: Value = text
        .parse()
        .map_err(|e| format!("BENCHMARK.json does not parse: {e}"))?;
    let workloads = field(&v, "workloads")
        .and_then(as_array)
        .ok_or("BENCHMARK.json: `workloads` is not a list")?
        .iter()
        .filter_map(|w| field(w, "name").and_then(as_str).map(str::to_string))
        .collect();
    Ok(Spec {
        run_seconds: field(&v, "run_seconds")
            .and_then(as_f64)
            .ok_or("BENCHMARK.json: no `run_seconds`")? as u64,
        workloads,
        end_to_end: metric_decls(&v, "end_to_end")?,
        per_layer: metric_decls(&v, "per_layer")?,
    })
}

/// The parsed declaration.
///
/// # Panics
///
/// Panics if the compiled-in `BENCHMARK.json` is malformed — a broken
/// build, not a runtime condition.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(BENCHMARK_JSON).unwrap_or_else(|e| panic!("{e}")))
}

/// Metric values gathered by one run, in emission order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, usize)>);

impl Metrics {
    /// Records `name = value`, measured from `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(self.get(name).is_none(), "metric {name} set twice");
        self.0.push((name, value, samples));
    }

    pub fn get(&self, name: &str) -> Option<(f64, usize)> {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, s)| (v, s))
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.iter().map(|&(n, _, _)| n)
    }
}

/// SplitMix64: derives independent generator seeds from the run seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_meets_the_contract() {
        let s = spec();
        assert!((1..=60).contains(&s.run_seconds));
        assert!((2..=8).contains(&s.workloads.len()));
        assert!(s.end_to_end.len() <= 16 && s.per_layer.len() <= 128);
        let setup = s.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.lower_is_better && setup.unit == "s");
        let mut names: Vec<&str> = s
            .workloads
            .iter()
            .map(String::as_str)
            .chain(s.end_to_end.iter().map(|m| m.name.as_str()))
            .chain(s.per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in &s.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
            assert!(setup.bound.unwrap() >= b, "setup_s has the largest bound");
        }
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }

    #[test]
    fn mix_separates_streams() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
