//! Tolerant reference summaries for the default seed: counts a legitimate
//! reassociation may nudge but a wrong answer moves far. Other seeds run
//! every other output check without them.

use serde::{Deserialize, Serialize};

use crate::fixture::package_dir;
use crate::spec::DEFAULT_SEED;
use crate::workloads::{flow::Flow, infer::Infer};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Golden {
    pub seed: u64,
    /// Predicted positives per `infer_b1_120k` design variant.
    pub infer_positives: Vec<usize>,
    /// Observation points inserted per `flow_b1_20k` design variant.
    pub flow_ops: Vec<usize>,
}

fn path() -> std::path::PathBuf {
    package_dir("golden.json")
}

/// The recorded summaries, if `seed` is the one they were recorded for.
pub fn load(seed: u64) -> Option<Golden> {
    let text = std::fs::read_to_string(path()).ok()?;
    let golden: Golden = serde_json::from_str(&text).ok()?;
    (golden.seed == seed).then_some(golden)
}

/// Records `golden.json` for [`DEFAULT_SEED`] from the current tree.
///
/// # Errors
///
/// A failed set-up or op, or an unwritable file.
pub fn regenerate() -> Result<(), String> {
    // Set up without the old file, so its checks cannot refuse new counts.
    let _ = std::fs::remove_file(path());
    let golden = Golden {
        seed: DEFAULT_SEED,
        infer_positives: Infer::setup(DEFAULT_SEED)?.golden_counts()?,
        flow_ops: Flow::setup(DEFAULT_SEED)?.golden_counts()?,
    };
    let text = serde_json::to_string_pretty(&golden).map_err(|e| e.to_string())?;
    std::fs::write(path(), text + "\n").map_err(|e| e.to_string())?;
    println!("wrote {}: {golden:?}", path().display());
    Ok(())
}
