//! Multi-stage GCN classification (§3.3 of the paper).
//!
//! Industrial designs are ~99.4% easy-to-observe, so a single classifier
//! collapses to the majority class. The paper's fix is a cascade: "In each
//! stage, a GCN is trained and only filters out negative cases with high
//! confidence, and passes the remaining nodes to the next stage ... This is
//! achieved by imposing a large weight on the positive nodes" (Fig. 4).
//! After a few stages the surviving set is roughly balanced and the last
//! stage makes the final call.

use serde::{Deserialize, Serialize};

use gcnt_tensor::{Matrix, Result, TensorError};

use crate::pass::{self, PassWorkspace};
use crate::train::{train, TrainConfig};
use crate::{Gcn, GcnConfig, GraphData, GraphTensors};

/// Configuration of the multi-stage cascade.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiStageConfig {
    /// Number of stages (the paper uses 3).
    pub stages: usize,
    /// Architecture of each stage's GCN.
    pub gcn: GcnConfig,
    /// Epochs per stage.
    pub epochs_per_stage: usize,
    /// Learning rate.
    pub lr: f32,
    /// A node survives a stage if its predicted positive probability is at
    /// least this threshold; anything below is filtered out as a
    /// high-confidence negative.
    pub filter_threshold: f32,
    /// Cap on the automatic positive class weight (`#neg / #pos` of the
    /// stage's active set, clamped to this value).
    pub max_pos_weight: f32,
    /// Seed for per-stage weight initialisation.
    pub seed: u64,
}

impl Default for MultiStageConfig {
    fn default() -> Self {
        MultiStageConfig {
            stages: 3,
            gcn: GcnConfig::default(),
            epochs_per_stage: 100,
            lr: 0.05,
            filter_threshold: 0.25,
            max_pos_weight: 32.0,
            seed: 0,
        }
    }
}

/// What happened at one stage of training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageReport {
    /// Stage number (0-based).
    pub stage: usize,
    /// Active nodes across all training graphs entering the stage.
    pub active: usize,
    /// Positive nodes among them.
    pub positives: usize,
    /// Positive class weight used.
    pub pos_weight: f32,
    /// Nodes filtered out (confident negatives) by this stage.
    pub filtered: usize,
}

/// A stage between [`CascadeTraining::begin_stage`] and
/// [`CascadeTraining::finish_stage`]: the model to train and how.
#[derive(Debug)]
pub struct OpenStage {
    /// The stage's GCN — freshly initialised, or restored mid-stage.
    pub gcn: Gcn,
    /// Epochs, rate and the stage's positive class weight.
    pub train: TrainConfig,
    /// The stage's report so far (`filtered` is set when it finishes).
    report: StageReport,
}

/// The cascade's training state between stages, and the only place its
/// stage decisions are made: which nodes are still active, how heavily
/// positives weigh, the one RNG draw per stage, which confident negatives
/// a finished stage filters. Whoever drives it chooses only how a stage's
/// GCN is trained — [`MultiStageGcn::train`] with plain [`train`],
/// `gcnt-runtime` with its guarded, checkpointing session. The four
/// fields are exactly what a checkpoint must carry to continue a cascade
/// bit for bit, so restoring one is a struct literal.
#[derive(Debug, Clone)]
pub struct CascadeTraining {
    /// Seeds each stage's weights; drawn from once per fresh stage.
    pub rng: gcnt_nn::Rng,
    /// Per-graph nodes no completed stage has filtered.
    pub active: Vec<Vec<usize>>,
    /// Fully trained stages.
    pub completed: Vec<Gcn>,
    /// One report per completed stage.
    pub reports: Vec<StageReport>,
}

impl CascadeTraining {
    /// The state before stage 0: every node of every graph is active.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty.
    pub fn new(cfg: &MultiStageConfig, graphs: &[&GraphData]) -> Self {
        assert!(!graphs.is_empty(), "need at least one training graph");
        CascadeTraining {
            rng: gcnt_nn::seeded_rng(cfg.seed),
            active: graphs
                .iter()
                .map(|g| (0..g.node_count()).collect())
                .collect(),
            completed: Vec::with_capacity(cfg.stages),
            reports: Vec::with_capacity(cfg.stages),
        }
    }

    /// Opens the next stage: weighs positives by the active set's
    /// imbalance (`#neg / #pos`, clamped to `1..=cfg.max_pos_weight`) and
    /// draws the stage's initial weights — unless `restored` hands in a
    /// model checkpointed mid-stage, whose draw was already made.
    pub fn begin_stage(
        &mut self,
        cfg: &MultiStageConfig,
        graphs: &[&GraphData],
        restored: Option<Gcn>,
    ) -> OpenStage {
        let stage = self.completed.len();
        let active: usize = self.active.iter().map(Vec::len).sum();
        let gauges = [
            gcnt_obs::gauges::CORE_CASCADE_STAGE0_ACTIVE,
            gcnt_obs::gauges::CORE_CASCADE_STAGE1_ACTIVE,
            gcnt_obs::gauges::CORE_CASCADE_STAGE2_ACTIVE,
            gcnt_obs::gauges::CORE_CASCADE_STAGE3_ACTIVE,
        ];
        if let Some(&gauge) = gauges.get(stage) {
            gcnt_obs::global().gauge_set(gauge, active as f64);
        }
        let positives: usize = graphs
            .iter()
            .zip(&self.active)
            .map(|(g, mask)| {
                mask.iter()
                    .filter(|&&i| g.labels.get(i) == Some(&1))
                    .count()
            })
            .sum();
        let negatives = active.saturating_sub(positives);
        let pos_weight = if positives == 0 {
            1.0
        } else {
            (negatives as f32 / positives as f32).clamp(1.0, cfg.max_pos_weight)
        };
        OpenStage {
            gcn: restored.unwrap_or_else(|| Gcn::new(&cfg.gcn, &mut self.rng)),
            train: TrainConfig {
                epochs: cfg.epochs_per_stage,
                lr: cfg.lr,
                pos_weight,
                momentum: 0.0,
            },
            report: StageReport {
                stage,
                active,
                positives,
                pos_weight,
                filtered: 0,
            },
        }
    }

    /// Closes a trained stage: drops from every graph's active set the
    /// nodes the stage scores below `cfg.filter_threshold` (confident
    /// negatives), and records the stage and its report.
    ///
    /// # Errors
    ///
    /// Returns a shape error if a graph disagrees with the model.
    pub fn finish_stage(
        &mut self,
        cfg: &MultiStageConfig,
        graphs: &[&GraphData],
        stage: OpenStage,
    ) -> Result<()> {
        let OpenStage {
            gcn, mut report, ..
        } = stage;
        for (g, mask) in graphs.iter().zip(self.active.iter_mut()) {
            let probs = gcn.predict_proba(&g.tensors, &g.features)?;
            let before = mask.len();
            mask.retain(|&i| probs.get(i).is_some_and(|&p| p >= cfg.filter_threshold));
            report.filtered += before - mask.len();
        }
        self.reports.push(report);
        self.completed.push(gcn);
        Ok(())
    }
}

/// A trained cascade of GCNs.
///
/// # Examples
///
/// ```no_run
/// use gcnt_core::{GraphData, MultiStageConfig, MultiStageGcn};
/// # fn get_training_data() -> Vec<GraphData> { unimplemented!() }
///
/// let graphs = get_training_data();
/// let refs: Vec<&GraphData> = graphs.iter().collect();
/// let (model, reports) = MultiStageGcn::train(&MultiStageConfig::default(), &refs)?;
/// let preds = model.predict(&graphs[0].tensors, &graphs[0].features)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MultiStageGcn {
    stages: Vec<Gcn>,
    filter_threshold: f32,
}

/// Decoding checks what [`MultiStageGcn::from_stages`] asserts and what
/// the filter needs: at least one stage (each stage checks itself), and a
/// filter threshold that is a probability, so a damaged model bundle is
/// refused instead of silently predicting nothing.
impl Deserialize for MultiStageGcn {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct Raw {
            stages: Vec<Gcn>,
            filter_threshold: f32,
        }
        let Raw {
            stages,
            filter_threshold,
        } = Raw::from_value(v)?;
        if stages.is_empty() {
            return Err(serde::Error::custom("a cascade needs at least one stage"));
        }
        if !(0.0..=1.0).contains(&filter_threshold) {
            return Err(serde::Error::custom(format!(
                "cascade filter threshold {filter_threshold} is not a probability in [0, 1]"
            )));
        }
        Ok(MultiStageGcn {
            stages,
            filter_threshold,
        })
    }
}

impl MultiStageGcn {
    /// Trains the cascade on labeled graphs (full imbalanced node sets).
    ///
    /// Each stage trains on the nodes still active, with the positive class
    /// weighted by the stage's imbalance ratio, then filters out nodes it
    /// is confident are negative.
    ///
    /// # Errors
    ///
    /// Returns a shape error if graphs disagree with the model config.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty or any graph is unlabeled.
    pub fn train(
        cfg: &MultiStageConfig,
        graphs: &[&GraphData],
    ) -> Result<(Self, Vec<StageReport>)> {
        let mut cascade = CascadeTraining::new(cfg, graphs);
        while cascade.completed.len() < cfg.stages {
            let mut stage = cascade.begin_stage(cfg, graphs, None);
            train(&mut stage.gcn, graphs, &cascade.active, &stage.train)?;
            cascade.finish_stage(cfg, graphs, stage)?;
        }
        Ok((
            MultiStageGcn {
                stages: cascade.completed,
                filter_threshold: cfg.filter_threshold,
            },
            cascade.reports,
        ))
    }

    /// Reassembles a cascade from already-trained stages — the resume path
    /// of a checkpointed training run, where completed stages are restored
    /// from disk and only the remaining ones are retrained.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty.
    pub fn from_stages(stages: Vec<Gcn>, filter_threshold: f32) -> Self {
        assert!(!stages.is_empty(), "a cascade needs at least one stage");
        MultiStageGcn {
            stages,
            filter_threshold,
        }
    }

    /// The trained stages.
    pub fn stages(&self) -> &[Gcn] {
        &self.stages
    }

    /// The per-stage negative-filter threshold.
    pub fn filter_threshold(&self) -> f32 {
        self.filter_threshold
    }

    /// Predicts a binary label per node: a node is positive iff it survives
    /// every stage's filter and the final stage assigns it probability at
    /// least 0.5.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the graph disagrees with the model.
    pub fn predict(&self, t: &GraphTensors, x: &Matrix) -> Result<Vec<u8>> {
        let probs = self.predict_proba(t, x)?;
        Ok(probs.iter().map(|&p| u8::from(p >= 0.5)).collect())
    }

    /// Positive probabilities per node: nodes filtered before the last
    /// stage report the probability at which they were filtered (guaranteed
    /// below the filter threshold); survivors report the last stage's
    /// probability.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the graph disagrees with the model.
    pub fn predict_proba(&self, t: &GraphTensors, x: &Matrix) -> Result<Vec<f32>> {
        self.predict_proba_budgeted_with(
            t,
            x,
            &gcnt_tensor::Budget::unlimited(),
            &mut crate::MatrixBackend::serial(),
        )
    }

    /// [`MultiStageGcn::predict_proba`] under an explicit work
    /// [`gcnt_tensor::Budget`] and [`crate::MatrixBackend`], filtering as
    /// the cascade trains: stage 0 embeds every row, and every later stage
    /// embeds only the rows its predecessors passed on — the final layer
    /// on the survivors, layer `D-1` on their one-hop halo, and so on back
    /// to the features — then classifies those rows alone. A stage nobody
    /// reaches does not run. Each stage is the row-tiled pass of
    /// `pass::predict_rows` over one shared workspace; every kernel in
    /// it is row-local with an unchanged per-row accumulation order, so
    /// the probabilities are bit-identical to running every stage over
    /// every node, and across backends (of which only the staleness check
    /// is used).
    ///
    /// Each layer charges the budget one unit per row it is about to
    /// compute — `n` per layer of stage 0, the halo's size per layer of a
    /// later stage — so an exhausted or cancelled budget stops the cascade
    /// at a layer boundary with no partial result.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the graph disagrees with the model, a
    /// budget error from the inter-layer checkpoints, or
    /// [`gcnt_tensor::TensorError::StaleCache`] from a partitioned
    /// backend built against an older graph generation.
    pub fn predict_proba_budgeted_with(
        &self,
        t: &GraphTensors,
        x: &Matrix,
        budget: &gcnt_tensor::Budget,
        backend: &mut crate::MatrixBackend,
    ) -> Result<Vec<f32>> {
        gcnt_obs::global().incr(gcnt_obs::counters::CORE_CASCADE_INFERENCES);
        backend.check_fresh(t)?;
        let rows: Vec<usize> = (0..t.node_count()).collect();
        let mut ws = PassWorkspace::new();
        cascade_rows(
            &self.stages,
            self.filter_threshold,
            &rows,
            |_, gcn, alive| pass::predict_rows(pass::PER_CORE, gcn, t, x, alive, budget, &mut ws),
        )
    }
}

/// The cascade rule over a row set — the one place inference applies the
/// filter threshold. Stage by stage, `stage_probs(s, stage, alive)`
/// supplies stage `s`'s positive-class probability of the rows still
/// `alive` (one per entry, in order): a non-final stage that scores a row
/// below `filter_threshold` settles it at that probability capped at 0.49
/// (a filtered node is never a positive) and passes the rest on; the last
/// stage settles whoever is left at its own probability. Stops as soon as
/// nobody is alive. Returns one probability per entry of `rows`, in order.
///
/// A row survives on `!(p < filter_threshold)`, so a NaN probability is
/// passed on rather than settled.
pub(crate) fn cascade_rows(
    stages: &[Gcn],
    filter_threshold: f32,
    rows: &[usize],
    mut stage_probs: impl FnMut(usize, &Gcn, &[usize]) -> Result<Vec<f32>>,
) -> Result<Vec<f32>> {
    let Some((first, later)) = stages.split_first() else {
        return Ok(vec![0.0; rows.len()]);
    };
    let mut classify = |s: usize, gcn: &Gcn, alive: &[usize]| -> Result<Vec<f32>> {
        let probs = stage_probs(s, gcn, alive)?;
        if probs.len() != alive.len() {
            return Err(TensorError::LengthMismatch {
                expected: alive.len(),
                actual: probs.len(),
            });
        }
        Ok(probs)
    };
    // `Some(p)` settles a row at `p`; `None` passes it on.
    let settle = |p: f32, last: bool| {
        if last {
            Some(p)
        } else if p < filter_threshold {
            Some(p.min(0.49))
        } else {
            None
        }
    };
    // Stage 0's probabilities become the answer, settled in place, and
    // later stages overwrite the rows passed on.
    let mut probs = classify(0, first, rows)?;
    // The rows passed on, and where in `rows` (and `probs`) each sits.
    let (mut slots, mut alive) = (Vec::new(), Vec::new());
    for (slot, (p, &row)) in probs.iter_mut().zip(rows).enumerate() {
        match settle(*p, later.is_empty()) {
            Some(settled) => *p = settled,
            None => {
                slots.push(slot);
                alive.push(row);
            }
        }
    }
    for (s, gcn) in later.iter().enumerate() {
        if alive.is_empty() {
            break;
        }
        let stage = classify(s + 1, gcn, &alive)?;
        let last = s + 1 == later.len();
        let mut passed_on = (Vec::new(), Vec::new());
        for ((&slot, &row), &p) in slots.iter().zip(&alive).zip(&stage) {
            match settle(p, last) {
                Some(settled) => {
                    if let Some(out) = probs.get_mut(slot) {
                        *out = settled;
                    }
                }
                None => {
                    passed_on.0.push(slot);
                    passed_on.1.push(row);
                }
            }
        }
        (slots, alive) = passed_on;
    }
    Ok(probs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Confusion;
    use gcnt_netlist::{generate, GeneratorConfig, Scoap};

    /// Imbalanced data: ~3% positives from the SCOAP observability tail.
    fn imbalanced_data(seed: u64) -> GraphData {
        let net = generate(&GeneratorConfig::sized("ms", seed, 700));
        let scoap = Scoap::compute(&net).unwrap();
        let mut cos: Vec<u32> = net.nodes().map(|v| scoap.co(v)).collect();
        cos.sort_unstable();
        let thresh = cos[cos.len() * 97 / 100].max(1);
        let labels: Vec<u8> = net
            .nodes()
            .map(|v| u8::from(scoap.co(v) >= thresh))
            .collect();
        GraphData::from_netlist(&net, None)
            .unwrap()
            .with_labels(labels)
    }

    fn small_cfg(stages: usize) -> MultiStageConfig {
        MultiStageConfig {
            stages,
            gcn: GcnConfig {
                embed_dims: vec![8, 8],
                fc_dims: vec![8],
                ..GcnConfig::default()
            },
            epochs_per_stage: 40,
            lr: 0.1,
            filter_threshold: 0.25,
            max_pos_weight: 16.0,
            seed: 5,
        }
    }

    #[test]
    fn cascade_trains_and_reports() {
        let d = imbalanced_data(71);
        let (model, reports) = MultiStageGcn::train(&small_cfg(3), &[&d]).unwrap();
        assert_eq!(model.stages().len(), 3);
        assert_eq!(reports.len(), 3);
        // First stage sees everything.
        assert_eq!(reports[0].active, d.node_count());
        // Stages filter nodes, so active counts never increase.
        assert!(reports[1].active <= reports[0].active);
        assert!(reports[2].active <= reports[1].active);
        // The cascade uses a >1 positive weight on imbalanced data.
        assert!(reports[0].pos_weight > 1.0);
    }

    #[test]
    fn a_graph_filtered_empty_keeps_the_cascade_training() {
        let (a, b) = (imbalanced_data(76), imbalanced_data(77));
        let graphs = [&a, &b];
        let mut cfg = small_cfg(2);
        cfg.epochs_per_stage = 10;
        // Stage 0 does not depend on the threshold, so a probe run tells
        // where to put it: between the two graphs' best scores, which
        // filters every node of one graph and not all of the other.
        let mut probe = CascadeTraining::new(&cfg, &graphs);
        let mut stage = probe.begin_stage(&cfg, &graphs, None);
        train(&mut stage.gcn, &graphs, &probe.active, &stage.train).unwrap();
        let best: Vec<f32> = graphs
            .iter()
            .map(|g| {
                let probs = stage.gcn.predict_proba(&g.tensors, &g.features).unwrap();
                probs.into_iter().fold(f32::MIN, f32::max)
            })
            .collect();
        assert_ne!(best[0], best[1]);
        cfg.filter_threshold = (best[0] + best[1]) / 2.0;
        let emptied = usize::from(best[1] < best[0]);

        let mut cascade = CascadeTraining::new(&cfg, &graphs);
        let mut losses = Vec::new();
        while cascade.completed.len() < cfg.stages {
            let mut stage = cascade.begin_stage(&cfg, &graphs, None);
            let history = train(&mut stage.gcn, &graphs, &cascade.active, &stage.train).unwrap();
            losses.extend(history.iter().map(|s| s.loss));
            cascade.finish_stage(&cfg, &graphs, stage).unwrap();
            if cascade.completed.len() == 1 {
                assert!(cascade.active[emptied].is_empty());
                assert!(!cascade.active[1 - emptied].is_empty());
            }
        }
        assert!(losses.iter().all(|l| l.is_finite()), "{losses:?}");
        let reports = &cascade.reports;
        assert_eq!(reports[0].active, a.node_count() + b.node_count());
        assert_eq!(reports[1].active, reports[0].active - reports[0].filtered);
        assert!(reports[0].filtered >= graphs[emptied].node_count());
        // The public entry point is this loop.
        let (model, same_reports) = MultiStageGcn::train(&cfg, &graphs).unwrap();
        assert_eq!(model.stages(), &cascade.completed[..]);
        assert_eq!(&same_reports, reports);
    }

    #[test]
    fn multistage_beats_single_stage_f1() {
        let d = imbalanced_data(72);
        // Single unweighted stage, no filtering.
        let single_cfg = MultiStageConfig {
            stages: 1,
            max_pos_weight: 1.0,
            ..small_cfg(1)
        };
        let (single, _) = MultiStageGcn::train(&single_cfg, &[&d]).unwrap();
        let (multi, _) = MultiStageGcn::train(&small_cfg(3), &[&d]).unwrap();
        let labels: Vec<usize> = d.labels.iter().map(|&l| l as usize).collect();
        let f1_of = |m: &MultiStageGcn| {
            let preds: Vec<usize> = m
                .predict(&d.tensors, &d.features)
                .unwrap()
                .iter()
                .map(|&p| p as usize)
                .collect();
            Confusion::from_predictions(&labels, &preds).f1()
        };
        let f1_single = f1_of(&single);
        let f1_multi = f1_of(&multi);
        assert!(
            f1_multi >= f1_single,
            "multi-stage F1 {f1_multi} should be >= single-stage {f1_single}"
        );
        assert!(f1_multi > 0.2, "multi-stage F1 {f1_multi} too low");
    }

    #[test]
    fn filtered_nodes_are_negative_predictions() {
        let d = imbalanced_data(73);
        let (model, _) = MultiStageGcn::train(&small_cfg(2), &[&d]).unwrap();
        let probs = model.predict_proba(&d.tensors, &d.features).unwrap();
        let preds = model.predict(&d.tensors, &d.features).unwrap();
        for (p, &y) in probs.iter().zip(&preds) {
            assert_eq!(y == 1, *p >= 0.5);
        }
    }

    #[test]
    #[should_panic(expected = "at least one training graph")]
    fn empty_graph_list_panics() {
        let _ = MultiStageGcn::train(&small_cfg(1), &[]);
    }

    #[test]
    fn from_stages_round_trips() {
        let d = imbalanced_data(75);
        let mut cfg = small_cfg(2);
        cfg.epochs_per_stage = 2;
        let (model, _) = MultiStageGcn::train(&cfg, &[&d]).unwrap();
        let rebuilt = MultiStageGcn::from_stages(model.stages().to_vec(), model.filter_threshold());
        assert_eq!(model, rebuilt);
    }

    #[test]
    fn serde_round_trip() {
        let d = imbalanced_data(74);
        let mut cfg = small_cfg(1);
        cfg.epochs_per_stage = 2;
        let (model, _) = MultiStageGcn::train(&cfg, &[&d]).unwrap();
        let json = serde_json::to_string(&model).unwrap();
        let back: MultiStageGcn = serde_json::from_str(&json).unwrap();
        assert_eq!(model, back);
    }

    #[test]
    fn decode_refuses_an_empty_cascade_and_a_threshold_outside_0_1() {
        let stage = Gcn::new(&small_cfg(1).gcn, &mut gcnt_nn::seeded_rng(3));
        let json = serde_json::to_string(&MultiStageGcn::from_stages(vec![stage], 0.25)).unwrap();
        assert!(serde_json::from_str::<MultiStageGcn>(&json).is_ok());

        let empty = r#"{"stages":[],"filter_threshold":0.25}"#;
        let err = serde_json::from_str::<MultiStageGcn>(empty).unwrap_err();
        assert!(err.to_string().contains("at least one stage"), "{err}");
        for bad in ["5.0", "-0.5", "1e39", "null"] {
            let text = json.replace(
                "\"filter_threshold\":0.25",
                &format!("\"filter_threshold\":{bad}"),
            );
            assert_ne!(text, json);
            let err = serde_json::from_str::<MultiStageGcn>(&text).unwrap_err();
            assert!(
                err.to_string().contains("not a probability in [0, 1]"),
                "{bad}: {err}"
            );
        }
    }
}
