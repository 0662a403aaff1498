//! The degradation ladder: three ways to answer an inference request,
//! ordered from cheapest-when-warm to cheapest-unconditionally.
//!
//! | rung | what runs | when it is skipped |
//! |------|-----------|--------------------|
//! | [`Rung::Incremental`] | cascade session (dirty-cone reuse): stage 0 embeds every row, later stages only the survivors' halo; a caller that persists completes the rest, uncharged | stale/poisoned cache, deadline below `Σ depth × n` |
//! | [`Rung::FullSparse`]  | filtered cascade inference: later stages embed only the survivors' halo | budget stop |
//! | [`Rung::FirstStage`]  | first cascade stage only, **unbudgeted** | never |
//!
//! The ladder exists to make deadline pressure *lossy in quality, not in
//! availability*: every admitted request completes on some rung, and the
//! response says which. The final rung runs without a budget — stage-0 of
//! the cascade is the coarse classifier the paper's cascade starts from,
//! so its scores are a sound (if less refined) ranking, and it is the
//! cheapest full pass the model owns.
//!
//! All rungs share one [`Budget`], and row costs are deterministic. The
//! top rung's charge is bounded before it runs — `Σ_stages depth × n`,
//! every stage over every row, is at least what the filtered open charges
//! — so the ladder asks [`Budget::can_afford`] and, when the deadline is
//! below that bound, records the rung as dropped *without charging*: the
//! budget reaches the full-sparse rung intact, and since that rung charges
//! only the rows it computes (`depth × n` for stage 0 plus the survivors'
//! halos), it answers at full quality for every deadline between its cost
//! and the bound. Only a rung abandoned mid-run (a stale
//! cache, a full-sparse pass that overruns) leaves burnt work behind. The
//! selected rung is a monotone function of the deadline: a tighter budget
//! can never select a *higher* (earlier) rung than a looser one on the
//! same request. Cancellation does not degrade: a request nobody is
//! waiting for is aborted, not answered worse.

use std::fmt;

use gcnt_core::{CascadeSession, EmbeddingCache, GraphTensors, MatrixBackend, MultiStageGcn};
use gcnt_tensor::{Budget, Matrix, TensorError};

use crate::error::ServeError;

/// One rung of the degradation ladder, ordered top (`Incremental`) to
/// bottom (`FirstStage`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// Incremental cascade session: full quality, cheapest when caches
    /// are warm.
    Incremental,
    /// Full sparse cascade inference: full quality, no cache dependence.
    FullSparse,
    /// First cascade stage only, run without a budget: degraded quality,
    /// guaranteed completion.
    FirstStage,
}

impl Rung {
    /// Stable lowercase name, used in responses and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            Rung::Incremental => "incremental",
            Rung::FullSparse => "full-sparse",
            Rung::FirstStage => "first-stage",
        }
    }

    /// Position on the ladder: 0 = top. Degradation only ever increases
    /// this.
    pub fn depth(self) -> usize {
        match self {
            Rung::Incremental => 0,
            Rung::FullSparse => 1,
            Rung::FirstStage => 2,
        }
    }
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a rung was abandoned on the way down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RungDrop {
    /// The rung that was tried.
    pub rung: Rung,
    /// The error that pushed the ladder down (display form).
    pub cause: String,
}

/// A completed ladder run: the scores, the rung that produced them, and
/// the rungs abandoned on the way.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderResult {
    /// Positive-class probability per node, from `rung`.
    pub probs: Vec<f32>,
    /// The rung that completed.
    pub rung: Rung,
    /// Rungs tried and abandoned before `rung`, top-down.
    pub dropped: Vec<RungDrop>,
}

/// Whether an error steps the ladder down (instead of failing the
/// request): budget exhaustion and stale caches degrade, everything else
/// aborts.
fn degrades(e: &TensorError) -> bool {
    matches!(
        e,
        TensorError::BudgetExceeded { .. } | TensorError::StaleCache { .. }
    )
}

/// Runs the ladder for one request on an explicit [`MatrixBackend`] and
/// hands back, beside the result, the incremental rung's open
/// [`CascadeSession`] when that rung answered. The session holds what the
/// filtered open computed — every row of stage 0, only the survivors'
/// halo of each later stage — so a caller that persists caches completes
/// it with [`CascadeSession::into_caches`], and any other caller drops it
/// without paying for rows nobody reads. Lower rungs build no session.
pub(crate) fn ladder<'m>(
    model: &'m MultiStageGcn,
    t: &GraphTensors,
    x: &Matrix,
    budget: &Budget,
    poison_incremental: bool,
    backend: &mut MatrixBackend,
) -> Result<(LadderResult, Option<CascadeSession<'m>>), ServeError> {
    let mut dropped = Vec::new();

    // Rung 0: incremental session. Its filtered open charges stage 0 over
    // every row and each later stage over the survivors' halo, never more
    // than `Σ depth × n`; a deadline below that bound is decided by
    // arithmetic, leaving the budget whole for the cheaper rung below.
    // The session comes back as the filtered open left it: completing it
    // is the persisting caller's cost, run on its own unlimited budget.
    let session_rows =
        model.stages().iter().map(|g| g.depth() as u64).sum::<u64>() * t.node_count() as u64;
    if poison_incremental {
        dropped.push(RungDrop {
            rung: Rung::Incremental,
            cause: TensorError::StaleCache { cache: 0, graph: 1 }.to_string() + " (injected)",
        });
    } else if let (false, Some(left)) = (budget.can_afford(session_rows), budget.remaining()) {
        // The usual budget-stop cause, minus the burn. Rows, not units:
        // an injected cost multiplier makes a row dearer than one unit.
        dropped.push(RungDrop {
            rung: Rung::Incremental,
            cause: format!(
                "work budget exceeded: the session's {session_rows} embedding rows do not fit \
                 the {left} units left (not charged)"
            ),
        });
    } else {
        match CascadeSession::for_cascade_budgeted_with(model, t, x, 0, budget, backend) {
            Ok(session) => {
                let probs = session.probs().to_vec();
                return Ok((
                    LadderResult {
                        probs,
                        rung: Rung::Incremental,
                        dropped,
                    },
                    Some(session),
                ));
            }
            Err(e) if degrades(&e) => dropped.push(RungDrop {
                rung: Rung::Incremental,
                cause: e.to_string(),
            }),
            Err(e) => return Err(e.into()),
        }
    }

    // Rung 1: full sparse inference.
    match model.predict_proba_budgeted_with(t, x, budget, backend) {
        Ok(probs) => {
            return Ok((
                LadderResult {
                    probs,
                    rung: Rung::FullSparse,
                    dropped,
                },
                None,
            ))
        }
        Err(e) if degrades(&e) => dropped.push(RungDrop {
            rung: Rung::FullSparse,
            cause: e.to_string(),
        }),
        Err(e) => return Err(e.into()),
    }

    // Rung 2: first cascade stage, unbudgeted — always completes.
    let first = model
        .stages()
        .first()
        .ok_or_else(|| ServeError::Load("model has no stages".to_string()))?;
    let probs = first.predict_proba(t, x)?;
    Ok((
        LadderResult {
            probs,
            rung: Rung::FirstStage,
            dropped,
        },
        None,
    ))
}

/// Runs the ladder for one request on an explicit [`MatrixBackend`]: the
/// two full-quality rungs run their SpMM aggregations through `backend`
/// (bit-identical to serial by construction). The unbudgeted floor rung
/// stays serial — it is the availability guarantee and must not depend on
/// a shard plan that could be stale.
///
/// `poison_incremental` is the injected stale-cache fault: the
/// incremental rung is abandoned exactly as if its cache generation had
/// drifted.
///
/// Besides the result, hands back the incremental rung's per-stage
/// embedding caches when that rung answered, complete: this function
/// fills every row the filtered open skipped (on an unlimited budget,
/// never charged to `budget`), which is what a page store persists for a
/// warm restart. Lower rungs never build caches, so they return `None`.
/// [`crate::ServeCore::handle_infer`] runs the same ladder but completes
/// the caches only when it has a store to save them to.
///
/// # Errors
///
/// [`ServeError::Tensor`] on a real model/graph error (a shape mismatch)
/// — never on deadline pressure, which degrades instead.
pub fn classify_with_ladder_backed(
    model: &MultiStageGcn,
    t: &GraphTensors,
    x: &Matrix,
    budget: &Budget,
    poison_incremental: bool,
    backend: &mut MatrixBackend,
) -> Result<(LadderResult, Option<Vec<EmbeddingCache>>), ServeError> {
    let (result, session) = ladder(model, t, x, budget, poison_incremental, backend)?;
    let caches = session.map(|s| s.into_caches(t, x)).transpose()?;
    Ok((result, caches))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnt_core::{Gcn, GcnConfig, GraphData};
    use gcnt_netlist::{generate, GeneratorConfig};
    use gcnt_nn::seeded_rng;

    fn fixture() -> (GraphData, MultiStageGcn) {
        let net = generate(&GeneratorConfig::sized("ladder", 5, 150));
        let data = GraphData::from_netlist(&net, None).unwrap();
        let cfg = GcnConfig {
            embed_dims: vec![6, 6],
            fc_dims: vec![6],
            ..GcnConfig::default()
        };
        let stages = vec![
            Gcn::new(&cfg, &mut seeded_rng(21)),
            Gcn::new(&cfg, &mut seeded_rng(22)),
        ];
        (data, MultiStageGcn::from_stages(stages, 0.5))
    }

    /// The ladder on the serial backend, result only.
    fn classify_with_ladder(
        model: &MultiStageGcn,
        t: &GraphTensors,
        x: &Matrix,
        budget: &Budget,
        poison_incremental: bool,
    ) -> Result<LadderResult, ServeError> {
        classify_with_ladder_backed(
            model,
            t,
            x,
            budget,
            poison_incremental,
            &mut MatrixBackend::serial(),
        )
        .map(|(result, _)| result)
    }

    #[test]
    fn unconstrained_request_stays_on_the_top_rung() {
        let (data, model) = fixture();
        let out = classify_with_ladder(
            &model,
            &data.tensors,
            &data.features,
            &Budget::unlimited(),
            false,
        )
        .unwrap();
        assert_eq!(out.rung, Rung::Incremental);
        assert!(out.dropped.is_empty());
        let full = model.predict_proba(&data.tensors, &data.features).unwrap();
        assert_eq!(out.probs, full, "top rung is full quality");
    }

    #[test]
    fn poisoned_cache_steps_down_to_full_sparse() {
        let (data, model) = fixture();
        let out = classify_with_ladder(
            &model,
            &data.tensors,
            &data.features,
            &Budget::unlimited(),
            true,
        )
        .unwrap();
        assert_eq!(out.rung, Rung::FullSparse);
        assert_eq!(out.dropped.len(), 1);
        assert_eq!(out.dropped[0].rung, Rung::Incremental);
        assert!(out.dropped[0].cause.contains("stale"), "{:?}", out.dropped);
        let full = model.predict_proba(&data.tensors, &data.features).unwrap();
        assert_eq!(out.probs, full, "full-sparse rung is full quality too");
    }

    #[test]
    fn deadline_pressure_reaches_the_floor_but_always_completes() {
        let (data, model) = fixture();
        // A budget too small for any full pass: both upper rungs abandon,
        // the unbudgeted floor completes. Zero drops.
        let budget = Budget::with_cap(3);
        let out =
            classify_with_ladder(&model, &data.tensors, &data.features, &budget, false).unwrap();
        assert_eq!(out.rung, Rung::FirstStage);
        assert_eq!(out.dropped.len(), 2);
        assert_eq!(out.probs.len(), data.node_count());
        let stage0 = model.stages()[0]
            .predict_proba(&data.tensors, &data.features)
            .unwrap();
        assert_eq!(out.probs, stage0);
    }

    #[test]
    fn a_deadline_between_the_two_costs_answers_full_sparse() {
        let (data, model) = fixture();
        // The fixture's untrained stage 0 passes everybody at 0.5; put
        // the threshold at its 90th percentile so the cascade filters.
        let mut stage0 = model.stages()[0]
            .predict_proba(&data.tensors, &data.features)
            .unwrap();
        stage0.sort_by(f32::total_cmp);
        let model =
            MultiStageGcn::from_stages(model.stages().to_vec(), stage0[stage0.len() * 9 / 10]);
        let session_rows: u64 = model
            .stages()
            .iter()
            .map(|g| g.depth() as u64 * data.node_count() as u64)
            .sum();
        // What the filtered pass charges: stage 0 over every row, later
        // stages over the survivors' halos.
        let probe = Budget::unlimited();
        let full = model
            .predict_proba_budgeted_with(
                &data.tensors,
                &data.features,
                &probe,
                &mut MatrixBackend::serial(),
            )
            .unwrap();
        let filtered_rows = probe.spent();
        assert!(
            filtered_rows < session_rows,
            "the fixture filters: {filtered_rows} of {session_rows} rows"
        );
        let run = |cap: u64| {
            let budget = Budget::with_cap(cap);
            let out = classify_with_ladder(&model, &data.tensors, &data.features, &budget, false)
                .unwrap();
            let dropped: Vec<Rung> = out.dropped.iter().map(|d| d.rung).collect();
            (out, dropped, budget.spent())
        };

        // Every deadline from the filtered cost up to one short of the
        // session's: the session is declined by arithmetic, the budget
        // arrives whole, and the answer is full quality.
        for cap in [filtered_rows, session_rows - 1] {
            let (out, dropped, spent) = run(cap);
            assert_eq!(out.rung, Rung::FullSparse, "cap {cap}");
            assert_eq!(out.probs, full, "cap {cap}");
            assert_eq!(dropped, [Rung::Incremental], "cap {cap}");
            assert!(out.dropped[0].cause.contains("work budget exceeded"));
            assert_eq!(spent, filtered_rows, "the declined rung charged nothing");
        }
        // The boundaries on either side.
        let (out, dropped, _) = run(session_rows);
        assert_eq!(out.rung, Rung::Incremental);
        assert_eq!((out.probs, dropped), (full, Vec::new()));
        let (out, dropped, _) = run(filtered_rows - 1);
        assert_eq!(out.rung, Rung::FirstStage);
        assert_eq!(dropped, [Rung::Incremental, Rung::FullSparse]);
    }

    #[test]
    fn rung_is_monotone_in_the_deadline() {
        let (data, model) = fixture();
        let mut last_depth: Option<usize> = None;
        // Sweep deadlines from generous to zero: the selected rung may
        // only move down the ladder.
        let full_rows: u64 = model
            .stages()
            .iter()
            .map(|g| g.depth() as u64 * data.node_count() as u64)
            .sum();
        for cap in [full_rows * 4, full_rows, full_rows / 2, 1] {
            let out = classify_with_ladder(
                &model,
                &data.tensors,
                &data.features,
                &Budget::with_cap(cap),
                false,
            )
            .unwrap();
            // Tighter deadline => same or deeper rung.
            if let Some(last) = last_depth {
                assert!(
                    out.rung.depth() >= last,
                    "cap {cap} picked {} after a looser cap picked depth {last}",
                    out.rung
                );
            }
            last_depth = Some(out.rung.depth());
        }
    }

    #[test]
    fn partitioned_backend_answers_bitwise_like_serial_on_every_rung() {
        let (data, model) = fixture();
        for (cap, poison) in [(u64::MAX, false), (u64::MAX, true), (3, false)] {
            let budget = Budget::with_cap(cap);
            let mut backend = MatrixBackend::partitioned(&data.tensors, 3).unwrap();
            let (backed, _) = classify_with_ladder_backed(
                &model,
                &data.tensors,
                &data.features,
                &budget,
                poison,
                &mut backend,
            )
            .unwrap();
            let serial = classify_with_ladder(
                &model,
                &data.tensors,
                &data.features,
                &Budget::with_cap(cap),
                poison,
            )
            .unwrap();
            assert_eq!(backed.rung, serial.rung, "cap {cap} poison {poison}");
            assert_eq!(backed.probs, serial.probs, "cap {cap} poison {poison}");
        }
    }
}
