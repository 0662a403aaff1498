//! `flow_b1_20k`: the iterative observation-point insertion flow on a
//! 20k-node design — one full pass, then hundreds of halo refreshes, CSR
//! row inserts and SCOAP cone refreshes. Stays below the partitioning
//! threshold, so it runs serial.

use std::time::Instant;

use gcnt_core::features::squash;
use gcnt_core::{CascadeSession, GraphData, GraphTensors};
use gcnt_dft::atpg::{run_random_atpg, AtpgConfig};
use gcnt_dft::flow::{run_gcn_opi, FlowConfig, FlowOutcome};
use gcnt_lint::{lint_design, lint_graph_tensors};
use gcnt_netlist::{format, CellKind, DesignPreset, GeneratorConfig, Netlist, NodeId, Scoap};
use gcnt_tensor::Matrix;

use super::{batch_window, designs, err, near_golden, probes, traced_ops, Window, Workload};
use crate::fixture::{self, Fixture};
use crate::golden;
use crate::procfs::MemWatch;
use crate::spec::Metrics;
use crate::stats::median;
use crate::trace::Tracer;

pub const NAME: &str = "flow_b1_20k";
const NODES: usize = 20_000;
const VARIANTS: usize = 4;
const STREAM: u64 = 2;
/// Iterations per op. The default 12 lets some 20k-node designs converge
/// after 10 and others not at all, so the work per op would swing by
/// ±10 % with the seed; at 8 every design still has positives left and
/// every op runs the same number of scoring rounds.
const MAX_ITERATIONS: usize = 8;
/// Patterns of the random-ATPG quality guard (a fraction of the CLI's
/// default, to keep the traced run short).
const ATPG_PATTERNS: usize = 2048;

struct Variant {
    net: Netlist,
    /// The `inserted` list of this variant's first op in the run.
    first_inserted: Option<Vec<NodeId>>,
    golden_ops: Option<usize>,
}

pub struct Flow {
    fixture: Fixture,
    variants: Vec<Variant>,
    base: GeneratorConfig,
    cfg: FlowConfig,
    seed: u64,
    warm_s: f64,
}

/// Brings `session` up to date with the rows dirtied since its last
/// refresh, as the flow does at the start of every iteration.
fn refresh(
    t: &mut Tracer,
    session: &mut CascadeSession<'_>,
    tensors: &GraphTensors,
    features: &Matrix,
    dirty: &mut Vec<usize>,
) -> Result<(), String> {
    if !dirty.is_empty() {
        t.time("core.session_refresh", || {
            session.refresh(tensors, features, dirty)
        })
        .map_err(err)?;
        dirty.clear();
    }
    Ok(())
}

/// Positive predictions the flow would still act on: the rule of
/// `run_gcn_opi`'s final count.
fn remaining_positives(net: &Netlist, scoap: &Scoap, probs: &[f32], threshold: f32) -> usize {
    net.nodes()
        .filter(|&v| !matches!(net.kind(v), CellKind::Output | CellKind::Dff))
        .filter(|&v| scoap.co(v) > 0)
        .filter(|&v| probs[v.index()] >= threshold)
        .count()
}

impl Flow {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let fixture = fixture::load()?;
        let base = DesignPreset::B1.config(NODES);
        let golden = golden::load(seed);
        let variants = designs(&base, seed, STREAM, VARIANTS)
            .into_iter()
            .enumerate()
            .map(|(k, net)| Variant {
                net,
                first_inserted: None,
                golden_ops: golden.as_ref().and_then(|g| g.flow_ops.get(k).copied()),
            })
            .collect();
        let mut w = Flow {
            fixture,
            variants,
            base,
            cfg: FlowConfig {
                max_iterations: MAX_ITERATIONS,
                ..FlowConfig::default()
            },
            seed,
            warm_s: 0.0,
        };
        let t0 = Instant::now();
        let out = w.op(0)?;
        w.warm_s = t0.elapsed().as_secs_f64();
        w.check(0, &out)?;
        Ok(w)
    }

    /// The op: fresh clone → `run_gcn_opi` → `lint_design`.
    fn op(&self, i: usize) -> Result<(Netlist, FlowOutcome, bool), String> {
        let mut net = self.variants[i % VARIANTS].net.clone();
        let outcome = run_gcn_opi(
            &mut net,
            &self.fixture.normalizer,
            &self.fixture.model,
            &self.cfg,
        )
        .map_err(err)?;
        let clean = lint_design(&net).is_clean();
        Ok((net, outcome, clean))
    }

    fn check(&mut self, i: usize, out: &(Netlist, FlowOutcome, bool)) -> Result<(), String> {
        let (_, outcome, clean) = out;
        let v = &mut self.variants[i % VARIANTS];
        if !clean {
            return Err("post-flow design does not lint clean".to_string());
        }
        let mut sorted = outcome.inserted.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != outcome.inserted.len() {
            return Err("an observation point was inserted twice".to_string());
        }
        let initial = outcome.history.first().map_or(0, |h| h.positives);
        if outcome.remaining_positives > initial {
            return Err(format!(
                "{} positives remain, {initial} at the start",
                outcome.remaining_positives
            ));
        }
        match &v.first_inserted {
            Some(first) if *first != outcome.inserted => {
                return Err("same design, different inserted list".to_string());
            }
            Some(_) => {}
            None => v.first_inserted = Some(outcome.inserted.clone()),
        }
        if let Some(golden) = v.golden_ops {
            near_golden(outcome.inserted.len(), golden, 0.01)
                .map_err(|e| format!("points inserted: {e}"))?;
        }
        Ok(())
    }

    /// Inserted-point counts per variant, for `golden.json`.
    pub fn golden_counts(&self) -> Result<Vec<usize>, String> {
        (0..self.variants.len())
            .map(|k| self.op(k).map(|(_, o, _)| o.inserted.len()))
            .collect()
    }

    /// Replays the flow's committed insertions through the layers' public
    /// calls — session open, then per batch: netlist insert, tensor row
    /// insert, SCOAP cone refresh, feature patch, session refresh — and
    /// checks that it arrives at the flow's own design and positive count.
    /// What the flow spent beyond this (candidate ranking, impact
    /// previews) is its self time.
    fn replay(
        &self,
        t: &mut Tracer,
        original: &Netlist,
        flowed: &Netlist,
        outcome: &FlowOutcome,
    ) -> Result<(), String> {
        let normalizer = &self.fixture.normalizer;
        let replay = t.enter("flow.replay");
        let mut net = original.clone();
        let data = t
            .time("core.featurize", || {
                GraphData::from_netlist(&net, Some(normalizer))
            })
            .map_err(err)?;
        let mut scoap = Scoap::compute(&net).map_err(err)?;
        let (mut tensors, mut features) = (data.tensors, data.features);
        let mut session: CascadeSession<'_> = t
            .time("core.session_open", || {
                self.fixture.model.open_session(&tensors, &features)
            })
            .map_err(err)?;
        let op_row = normalizer.observation_point_row();
        let mut targets = outcome.inserted.iter().copied();
        let mut dirty: Vec<usize> = Vec::new();
        for batch in &outcome.history {
            refresh(t, &mut session, &tensors, &features, &mut dirty)?;
            for target in targets.by_ref().take(batch.inserted) {
                let op = t
                    .time("netlist.insert_op", || net.insert_observation_point(target))
                    .map_err(err)?;
                t.time("core.tensors_insert", || {
                    tensors.insert_observation_point(target, op)
                })
                .map_err(err)?;
                let changed = t.time("netlist.scoap_observe", || scoap.observe(&net, target, op));
                for v in changed {
                    let cell = normalizer.normalize_cell(3, squash(scoap.co(v)));
                    features.set(v.index(), 3, cell);
                    dirty.push(v.index());
                }
                features.push_row(&op_row).map_err(err)?;
                dirty.extend([target.index(), op.index()]);
                session.sync_nodes(&tensors);
            }
        }
        refresh(t, &mut session, &tensors, &features, &mut dirty)?;
        let remaining = remaining_positives(&net, &scoap, session.probs(), self.cfg.prob_threshold);
        t.time("lint.tensors", || lint_graph_tensors(&net, &tensors));
        t.exit(replay);
        if format::write(&net) != format::write(flowed) {
            return Err("replayed design differs from the flow's".to_string());
        }
        if remaining != outcome.remaining_positives {
            return Err(format!(
                "replay ends with {remaining} positives, the flow with {}",
                outcome.remaining_positives
            ));
        }
        Ok(())
    }
}

impl Workload for Flow {
    fn measure(&mut self, seconds: f64, peak: &mut MemWatch) -> Window {
        // `check` memoises per variant, so it needs `&mut self` while
        // `op` borrows shared; the two never overlap.
        let this = std::cell::RefCell::new(self);
        batch_window(
            seconds,
            peak,
            |i| this.borrow().op(i),
            |i, out| this.borrow_mut().check(i, out),
        )
    }

    fn trace(&mut self, seconds: f64, t: &mut Tracer, out: &mut Metrics) -> Result<(), String> {
        let ops = traced_ops(seconds, self.warm_s);
        let mut account = super::ProcAccount::default();
        let mut whole_ms = Vec::new();
        let mut last: Option<(usize, Netlist, FlowOutcome)> = None;
        for i in 0..ops {
            t.set_op(i as u32);
            let t0 = Instant::now();
            let plain = account.during(1, || self.op(i))?;
            whole_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            self.check(i, &plain)?;

            let variant = i % VARIANTS;
            let op = t.enter("op.parts");
            let mut net = self.variants[variant].net.clone();
            let outcome = t
                .time("dft.flow", || {
                    run_gcn_opi(
                        &mut net,
                        &self.fixture.normalizer,
                        &self.fixture.model,
                        &self.cfg,
                    )
                })
                .map_err(err)?;
            let clean = t.time("lint.design", || lint_design(&net)).is_clean();
            t.exit(op);
            if !clean || outcome != plain.1 {
                return Err(format!("op {i}: traced flow differs from the untraced one"));
            }
            let original = self.variants[variant].net.clone();
            self.replay(t, &original, &net, &outcome)?;
            last = Some((variant, net, outcome));
        }
        account.report(out);
        super::report_overhead(t, &whole_ms, out);

        let per_op = |name: &str| median(&t.per_op_ms(name));
        let flow_ms = per_op("dft.flow");
        let open_ms = per_op("core.session_open");
        let replayed_ms = open_ms
            + per_op("core.session_refresh")
            + per_op("netlist.insert_op")
            + per_op("core.tensors_insert")
            + per_op("netlist.scoap_observe");
        out.set("dft.flow_self_ms", flow_ms - replayed_ms, ops);
        out.set("core.attributed_share", replayed_ms / flow_ms, ops);
        out.set("core.session_open_ms", open_ms, ops);
        for (metric, span) in [
            ("core.session_refresh_us", "core.session_refresh"),
            ("core.tensors_insert_us", "core.tensors_insert"),
            ("netlist.insert_op_us", "netlist.insert_op"),
            ("netlist.scoap_observe_us", "netlist.scoap_observe"),
        ] {
            probes::report_median(t, out, metric, span);
        }
        for (metric, span) in [
            ("core.featurize_ms", "core.featurize"),
            ("lint.design_ms", "lint.design"),
            ("lint.tensors_ms", "lint.tensors"),
        ] {
            probes::report_median(t, out, metric, span);
        }

        // Counts of the last traced op: they must repeat exactly for one
        // seed, whatever a performance change does.
        let (variant, flowed, outcome) = last.ok_or("no traced op ran")?;
        let inf = outcome.inference;
        out.set("core.rows_computed", inf.rows_computed as f64, 1);
        out.set("core.rows_full", inf.rows_full as f64, 1);
        out.set(
            "core.reuse_factor",
            inf.rows_full as f64 / inf.rows_computed.max(1) as f64,
            1,
        );
        out.set("dft.iterations", outcome.history.len() as f64, 1);
        out.set("dft.inferences", inf.inferences as f64, 1);
        out.set("dft.points_inserted", outcome.inserted.len() as f64, 1);
        out.set(
            "dft.remaining_positives",
            outcome.remaining_positives as f64,
            1,
        );

        // Quality guard: random-ATPG coverage before and after, one design.
        t.set_op(u32::MAX);
        let atpg = AtpgConfig {
            max_patterns: ATPG_PATTERNS,
            ..AtpgConfig::default()
        };
        let original = &self.variants[variant].net;
        let before = t
            .time("dft.atpg", || run_random_atpg(original, &atpg))
            .map_err(err)?;
        let after = t
            .time("dft.atpg", || run_random_atpg(&flowed, &atpg))
            .map_err(err)?;
        probes::report_median(t, out, "dft.atpg_ms", "dft.atpg");
        out.set(
            "dft.coverage_gain_pp",
            (after.coverage() - before.coverage()) * 100.0,
            1,
        );

        // The same op with the metrics registry disabled and enabled, twice
        // each in alternation; the faster of each pair, because this host's
        // speed shifts by more than the registry could cost.
        let timed_op = |enabled: bool| -> Result<f64, String> {
            if enabled {
                gcnt_obs::global().enable();
            }
            let t0 = Instant::now();
            let result = self.op(0);
            gcnt_obs::global().disable();
            result.map(|_| t0.elapsed().as_secs_f64() * 1e3)
        };
        let (mut disabled_ms, mut enabled_ms) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..2 {
            disabled_ms = disabled_ms.min(timed_op(false)?);
            enabled_ms = enabled_ms.min(timed_op(true)?);
        }
        out.set("obs.enabled_overhead_ratio", enabled_ms / disabled_ms, 2);

        // Layer probes on the last design's own operands, with the last
        // refresh halo's size as the row set.
        let data =
            GraphData::from_netlist(original, Some(&self.fixture.normalizer)).map_err(err)?;
        let halo = data
            .tensors
            .halo_step(&data.tensors.halo_step(&[0, 1, 2, 3]));
        probes::layers(
            t,
            &self.fixture.model,
            &data,
            &halo,
            &super::design_config(self.base.clone(), self.seed, STREAM, 0),
            out,
        )
    }
}
