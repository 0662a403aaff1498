//! `infer_b1_120k`: design text → probabilities at paper scale, the only
//! workload above `MatrixBackend::auto`'s partitioning threshold.

use std::time::Instant;

use gcnt_core::recursive::predict_nodes;
use gcnt_core::{GraphData, MatrixBackend};
use gcnt_netlist::format;
use gcnt_tensor::Budget;

use super::{
    attributed_share, batch_window, designs, err, near_golden, probes, sample_nodes, traced_ops,
    Window, Workload,
};
use crate::fixture::{self, Fixture};
use crate::golden;
use crate::procfs::MemWatch;
use crate::spec::Metrics;
use crate::trace::Tracer;

pub const NAME: &str = "infer_b1_120k";
const VARIANTS: usize = 2;
const STREAM: u64 = 1;
/// Nodes per stage compared with the recursion oracle.
const ORACLE_NODES: usize = 64;
const ORACLE_TOLERANCE: f64 = 1e-4;

/// What the recursion oracle says about one sampled node: its
/// positive-class probability at every stage.
struct OracleNode {
    node: usize,
    stage_probs: Vec<f64>,
}

struct Variant {
    text: String,
    nodes: usize,
    oracle: Vec<OracleNode>,
    golden_positives: Option<usize>,
}

pub struct Infer {
    fixture: Fixture,
    variants: Vec<Variant>,
    base: gcnt_netlist::GeneratorConfig,
    seed: u64,
    warm_s: f64,
}

impl Infer {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let fixture = fixture::load()?;
        let base = gcnt_netlist::DesignPreset::B1.paper_config();
        let golden = golden::load(seed);
        let mut variants = Vec::with_capacity(VARIANTS);
        for (k, net) in designs(&base, seed, STREAM, VARIANTS).iter().enumerate() {
            let data = GraphData::from_netlist(net, Some(&fixture.normalizer)).map_err(err)?;
            let picked = sample_nodes(net.node_count(), ORACLE_NODES, seed ^ k as u64);
            let mut oracle: Vec<OracleNode> = picked
                .iter()
                .map(|&node| OracleNode {
                    node,
                    stage_probs: Vec::new(),
                })
                .collect();
            for gcn in fixture.model.stages() {
                let logits =
                    predict_nodes(gcn, &data.tensors, &data.features, &picked).map_err(err)?;
                for (i, o) in oracle.iter_mut().enumerate() {
                    let (l0, l1) = (f64::from(logits.get(i, 0)), f64::from(logits.get(i, 1)));
                    let m = l0.max(l1);
                    o.stage_probs
                        .push((l1 - m).exp() / ((l0 - m).exp() + (l1 - m).exp()));
                }
            }
            variants.push(Variant {
                text: format::write(net),
                nodes: net.node_count(),
                oracle,
                golden_positives: golden
                    .as_ref()
                    .and_then(|g| g.infer_positives.get(k).copied()),
            });
        }
        let mut w = Infer {
            fixture,
            variants,
            base,
            seed,
            warm_s: 0.0,
        };
        let t0 = Instant::now();
        let probs = w.op(0)?;
        w.warm_s = t0.elapsed().as_secs_f64();
        w.check(0, &probs)?;
        Ok(w)
    }

    /// The op: text → netlist → features and adjacency → backend → cascade.
    fn op(&self, i: usize) -> Result<Vec<f32>, String> {
        let v = &self.variants[i % self.variants.len()];
        let net = format::read(&v.text).map_err(err)?;
        let data = GraphData::from_netlist(&net, Some(&self.fixture.normalizer)).map_err(err)?;
        let mut backend = MatrixBackend::auto(&data.tensors);
        self.fixture
            .model
            .predict_proba_budgeted_with(
                &data.tensors,
                &data.features,
                &Budget::unlimited(),
                &mut backend,
            )
            .map_err(err)
    }

    fn check(&self, i: usize, probs: &[f32]) -> Result<(), String> {
        let v = &self.variants[i % self.variants.len()];
        if probs.len() != v.nodes {
            return Err(format!(
                "{} probabilities for {} nodes",
                probs.len(),
                v.nodes
            ));
        }
        let threshold = f64::from(self.fixture.model.filter_threshold());
        for o in &v.oracle {
            let got = f64::from(probs[o.node]);
            if !cascade_accepts(&o.stage_probs, threshold, got) {
                return Err(format!(
                    "node {}: got {got}, recursion oracle stages {:?}",
                    o.node, o.stage_probs
                ));
            }
        }
        if let Some(golden) = v.golden_positives {
            near_golden(positives(probs), golden, 0.005).map_err(|e| format!("positives: {e}"))?;
        }
        Ok(())
    }

    /// Positive counts per variant, for `golden.json`.
    pub fn golden_counts(&self) -> Result<Vec<usize>, String> {
        (0..self.variants.len())
            .map(|k| self.op(k).map(|p| positives(&p)))
            .collect()
    }

    /// The op again, every call into a layer under a span.
    fn op_by_parts(&self, t: &mut Tracer, i: usize) -> Result<Vec<f32>, String> {
        let v = &self.variants[i % self.variants.len()];
        let op = t.enter("op.parts");
        let net = t
            .time("netlist.parse", || format::read(&v.text))
            .map_err(err)?;
        let data = t
            .time("core.featurize", || {
                GraphData::from_netlist(&net, Some(&self.fixture.normalizer))
            })
            .map_err(err)?;
        let mut backend = t.time("tensor.part_build", || MatrixBackend::auto(&data.tensors));
        let probs = probes::cascade_by_parts(t, &self.fixture.model, &data, &mut backend)?;
        t.time("core.free", || drop((backend, data, net)));
        t.exit(op);
        Ok(probs)
    }
}

fn positives(probs: &[f32]) -> usize {
    probs.iter().filter(|&&p| p >= 0.5).count()
}

/// Whether `got` is what the cascade rule makes of the oracle's per-stage
/// probabilities: a stage below the filter threshold answers
/// `min(p, 0.49)`, the last stage answers `p`. A probability within the
/// tolerance of the threshold may legitimately fall on either side.
fn cascade_accepts(stage_probs: &[f64], threshold: f64, got: f64) -> bool {
    let Some((&p, rest)) = stage_probs.split_first() else {
        return false;
    };
    if rest.is_empty() {
        return (got - p).abs() <= ORACLE_TOLERANCE;
    }
    let filtered =
        p < threshold + ORACLE_TOLERANCE && (got - p.min(0.49)).abs() <= ORACLE_TOLERANCE;
    let passed = p >= threshold - ORACLE_TOLERANCE && cascade_accepts(rest, threshold, got);
    filtered || passed
}

impl Workload for Infer {
    fn measure(&mut self, seconds: f64, peak: &mut MemWatch) -> Window {
        batch_window(seconds, peak, |i| self.op(i), |i, p| self.check(i, p))
    }

    fn trace(&mut self, seconds: f64, t: &mut Tracer, out: &mut Metrics) -> Result<(), String> {
        let ops = traced_ops(seconds, self.warm_s);
        let mut account = super::ProcAccount::default();
        let mut whole_ms = Vec::new();
        for i in 0..ops {
            t.set_op(i as u32);
            let t0 = Instant::now();
            let plain = account.during(1, || self.op(i))?;
            whole_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            self.check(i, &plain)?;
            let parts = self.op_by_parts(t, i)?;
            if parts != plain {
                return Err(format!(
                    "op {i}: by-parts pass differs from the one-call result"
                ));
            }
        }
        account.report(out);
        super::report_overhead(t, &whole_ms, out);
        probes::report_cascade(t, out);
        probes::report_median(t, out, "core.featurize_ms", "core.featurize");
        out.set(
            "core.attributed_share",
            attributed_share(t, &["core.pass"]),
            ops,
        );

        // Layer probes on variant 0's own operands.
        t.set_op(u32::MAX);
        let v = &self.variants[0];
        let net = format::read(&v.text).map_err(err)?;
        let data = GraphData::from_netlist(&net, Some(&self.fixture.normalizer)).map_err(err)?;
        let halo = sample_nodes(v.nodes, 256, 0x4A10);
        probes::tensor(t, &self.fixture.model, &data, &halo, out)?;
        drop((data, net));
        probes::netlist(
            t,
            &super::design_config(self.base.clone(), self.seed, STREAM, 0),
            out,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::cascade_accepts;

    #[test]
    fn cascade_rule_on_oracle_probabilities() {
        // Filtered at stage 0: answer is min(p, 0.49).
        assert!(cascade_accepts(&[0.1, 0.9, 0.9], 0.25, 0.1));
        assert!(!cascade_accepts(&[0.1, 0.9, 0.9], 0.25, 0.9));
        // Survives both filters: the last stage answers.
        assert!(cascade_accepts(&[0.6, 0.7, 0.8], 0.25, 0.8));
        // Filtered at stage 1 with p above 0.49 is impossible below the
        // threshold, but the clamp still applies to the rule.
        assert!(cascade_accepts(&[0.6, 0.2, 0.8], 0.25, 0.2));
        // On the threshold either side is accepted.
        assert!(cascade_accepts(&[0.25, 0.7], 0.25, 0.25));
        assert!(cascade_accepts(&[0.25, 0.7], 0.25, 0.7));
        assert!(!cascade_accepts(&[], 0.25, 0.0));
    }
}
