//! Shared plumbing for the experiment binaries that regenerate every
//! table and figure of the paper's evaluation (§5), plus [`mlbase`], the
//! classical baselines only Table 2 runs.
//!
//! Each binary accepts `--nodes N` (design scale), `--epochs N`,
//! `--seed N` and `--out PATH` where applicable; defaults are sized so the
//! whole suite completes in minutes on a single core. The paper's
//! 1.4M-node scale is reachable by passing `--nodes 1400000`.

#![forbid(unsafe_code)]

pub mod mlbase;

use std::collections::HashMap;

use serde::Serialize;

use gcnt_core::features::FeatureNormalizer;
use gcnt_core::GraphData;
use gcnt_dft::labeler::{label_difficult_to_observe, LabelConfig, LabelResult};
use gcnt_netlist::{generate, DesignPreset, Netlist};

/// Tiny `--key value` argument parser (no external CLI dependency).
///
/// # Examples
///
/// ```
/// use gcnt_bench::Args;
///
/// let args = Args::from_tokens(["--nodes", "5000", "--fast"]);
/// assert_eq!(args.get_usize("nodes", 100), 5000);
/// assert!(args.get_flag("fast"));
/// assert_eq!(args.get_usize("epochs", 42), 42);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses the process arguments (skipping `argv[0]`).
    pub fn parse() -> Self {
        Args::from_tokens(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (for tests).
    pub fn from_tokens<I, S>(iter: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let tokens: Vec<String> = iter.into_iter().map(Into::into).collect();
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < tokens.len() {
            let token = &tokens[i];
            if let Some(key) = token.strip_prefix("--") {
                if i + 1 < tokens.len() && !tokens[i + 1].starts_with("--") {
                    values.insert(key.to_string(), tokens[i + 1].clone());
                    i += 2;
                    continue;
                }
                flags.push(key.to_string());
            }
            i += 1;
        }
        Args { values, flags }
    }

    /// Integer option with default; a present value that does not parse
    /// is a usage error (message on stderr, exit status 2).
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.parsed(key, default).unwrap_or_else(|e| usage_exit(&e))
    }

    /// Float option with default; malformed values exit like
    /// [`Args::get_usize`].
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.parsed(key, default).unwrap_or_else(|e| usage_exit(&e))
    }

    /// `default` when `--key` is absent, its parsed value when present,
    /// and an error naming the option and the text when it does not parse
    /// — a run at the wrong scale must not look like a run at the default.
    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{key}: cannot parse `{text}` as a number")),
        }
    }

    /// Boolean flag presence.
    pub fn get_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

fn usage_exit(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// One prepared benchmark design: netlist + labels + model-ready data.
pub struct PreparedDesign {
    /// The generated netlist.
    pub netlist: Netlist,
    /// Labeling result (labels + estimated observabilities).
    pub label_result: LabelResult,
    /// Model-ready tensors/features with labels attached.
    pub data: GraphData,
}

/// Generates and labels the four Table 1 designs at the given node scale,
/// fitting one shared feature normaliser across all of them (they are the
/// *training universe*; callers doing train/test rotation should refit on
/// the training subset via [`refit_normalizer`] for strict inductiveness —
/// the experiments use the rotation helper below).
pub fn prepare_designs(nodes: usize, label_cfg: &LabelConfig) -> Vec<PreparedDesign> {
    let mut designs = Vec::new();
    for preset in DesignPreset::ALL {
        let net = generate(&preset.config(nodes));
        let labels =
            label_difficult_to_observe(&net, label_cfg).expect("generated designs are acyclic");
        let data = GraphData::from_netlist(&net, None)
            .expect("generated designs are acyclic")
            .with_labels(labels.labels.clone());
        designs.push(PreparedDesign {
            netlist: net,
            label_result: labels,
            data,
        });
    }
    designs
}

/// Refits a shared normaliser on the listed (training) designs and
/// re-applies it to every design, so test designs are normalised with
/// training statistics only.
pub fn refit_normalizer(designs: &mut [PreparedDesign], train_idx: &[usize]) {
    let raws: Vec<&gcnt_tensor::Matrix> = train_idx
        .iter()
        .map(|&i| &designs[i].data.raw_features)
        .collect();
    let normalizer = FeatureNormalizer::fit(&raws);
    for d in designs.iter_mut() {
        d.data.features = normalizer.apply(&d.data.raw_features);
        d.data.normalizer = normalizer.clone();
    }
}

/// Writes a serialisable result as pretty JSON under `results/`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if std::fs::write(&path, json).is_ok() {
                println!("(wrote results/{name}.json)");
            }
        }
        Err(e) => eprintln!("failed to serialise {name}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_pairs_and_flags() {
        let args = Args::from_tokens(["--nodes", "123", "--verbose", "--lr", "0.5"]);
        assert_eq!(args.get_usize("nodes", 0), 123);
        assert!((args.get_f64("lr", 0.0) - 0.5).abs() < 1e-12);
        assert!(args.get_flag("verbose"));
        assert!(!args.get_flag("quiet"));
    }

    #[test]
    fn args_defaults() {
        let args = Args::from_tokens(Vec::<String>::new());
        assert_eq!(args.get_usize("nodes", 77), 77);
    }

    #[test]
    fn args_malformed_number_is_an_error_not_the_default() {
        let args = Args::from_tokens(["--nodes", "2k", "--lr", "o.5", "--epochs", "30"]);
        let err = args.parsed("nodes", 10_000usize).unwrap_err();
        assert!(err.contains("--nodes") && err.contains("2k"), "{err}");
        let err = args.parsed("lr", 0.1f64).unwrap_err();
        assert!(err.contains("--lr") && err.contains("o.5"), "{err}");
        assert_eq!(args.parsed("epochs", 5usize), Ok(30));
        assert_eq!(args.parsed("seed", 7usize), Ok(7));
    }

    #[test]
    fn prepare_small_designs() {
        let label_cfg = LabelConfig {
            patterns: 512,
            threshold: 0.005,
            seed: 1,
        };
        let designs = prepare_designs(600, &label_cfg);
        assert_eq!(designs.len(), 4);
        for d in &designs {
            assert_eq!(d.data.node_count(), d.netlist.node_count());
            assert_eq!(d.data.labels.len(), d.netlist.node_count());
        }
    }

    #[test]
    fn refit_uses_training_stats_only() {
        let label_cfg = LabelConfig {
            patterns: 256,
            threshold: 0.005,
            seed: 2,
        };
        let mut designs = prepare_designs(500, &label_cfg);
        refit_normalizer(&mut designs, &[0, 1, 2]);
        let shared = designs[0].data.normalizer.clone();
        for d in &designs {
            assert_eq!(d.data.normalizer, shared);
        }
    }
}
