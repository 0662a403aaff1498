//! The paper's iterative GCN-guided observation point insertion (§4,
//! Fig. 7).
//!
//! Each iteration:
//!
//! 1. The trained classifier predicts difficult-to-observe nodes.
//! 2. Every positive prediction (up to a candidate cap) is scored by
//!    *impact*: the reduction in positive predictions within its fan-in
//!    cone if an observation point were inserted there (Fig. 6). The
//!    hypothetical insertion is previewed by recomputing SCOAP
//!    observability over the fan-in cone ([`Scoap::preview_observe`]) and
//!    re-running inference with the updated attributes.
//! 3. The top-ranked locations receive observation points. The graph is
//!    updated *incrementally*: the adjacency gains the new tuples, the
//!    new node gets the attribute row `[0, 1, 1, 0]`, and only the fan-in
//!    cone's observability is refreshed (§4).
//! 4. Repeat until no positive predictions remain.
//!
//! # One inference per run
//!
//! The loop asks its [`FlowClassifier`] one thing, once: `open` an
//! [`Inference`] over the (post-replay) graph state. Everything after
//! that — the probabilities of step 1, the per-candidate previews of
//! step 2, adopting the graph step 3 grew — is a question to that object,
//! which also owns the run's work budget and its accounting.
//!
//! Step 2 re-runs inference once per candidate, which read literally makes
//! the inner loop `O(candidates × N)` embedding rows per iteration. A
//! model (a [`MultiStageGcn`]; one `Gcn` is a one-stage cascade) instead
//! opens a [`CascadeSession`] with one full pass — the only pass that
//! takes a matrix backend ([`MatrixBackend::serial`], built and dropped
//! inside `open`) — and each preview recomputes only the D-hop halo of
//! the previewed cone,
//! `O(candidates × |cone halo|)`, with bit-identical probabilities (see
//! `gcnt_core::incremental`). A bare closure gets the literal procedure,
//! which is the reference the session path is tested against.
//! [`FlowOutcome::inference`] reports the rows actually computed against
//! the full-recompute equivalent.
//!
//! # Consistency
//!
//! A commit is checked where it happens, not by re-linting the design:
//! the tensor append refuses an observation point that is not the
//! tensors' next row, and a session refuses a graph generation it was not
//! synced to. The whole-design comparison is a test oracle: after every
//! committed insertion the tensors and SCOAP equal from-scratch rebuilds,
//! and after every batch the session serves a fresh pass's probabilities.
//!
//! Deviation from the paper, for exactness bookkeeping: during *impact
//! preview* (step 2) the candidate's would-be OP cell is not added to the
//! graph structure — only the attribute changes are applied. The committed
//! insertion (step 3) performs the full structural update. The preview
//! therefore slightly underestimates the embedding perturbation one extra
//! sink node causes; the committed state is exact.

use std::fmt;

use serde::{Deserialize, Serialize};

use gcnt_core::features::{squash, FeatureNormalizer};
use gcnt_core::{CascadeSession, GraphData, GraphTensors, MatrixBackend, MultiStageGcn};
use gcnt_netlist::{CellKind, Netlist, NetlistError, NodeId, Scoap};
use gcnt_tensor::{Budget, Matrix, TensorError};

/// Errors produced by the insertion flow.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// The netlist substrate reported an error.
    Netlist(NetlistError),
    /// A tensor kernel reported an error (model/graph shape mismatch, or a
    /// work-budget stop from a cooperative checkpoint).
    Tensor(TensorError),
    /// The batch observer of a resumable run ([`run_gcn_opi_resumable`])
    /// refused a committed batch — typically a write-ahead journal that
    /// could not persist the record. The design keeps the batch; the flow
    /// stops so no work the journal did not capture can pile up.
    Journal(String),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Netlist(e) => write!(f, "netlist error: {e}"),
            FlowError::Tensor(e) => write!(f, "tensor error: {e}"),
            FlowError::Journal(detail) => write!(f, "journal error: {detail}"),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Netlist(e) => Some(e),
            FlowError::Tensor(e) => Some(e),
            FlowError::Journal(_) => None,
        }
    }
}

impl FlowError {
    /// Whether this error is a cooperative work-budget stop
    /// ([`TensorError::BudgetExceeded`]) rather than a real failure — the signal the serving layer uses to
    /// step down its degradation ladder instead of failing the request.
    pub fn is_budget_stop(&self) -> bool {
        matches!(self, FlowError::Tensor(TensorError::BudgetExceeded { .. }))
    }
}

#[doc(hidden)]
impl From<NetlistError> for FlowError {
    fn from(e: NetlistError) -> Self {
        FlowError::Netlist(e)
    }
}

#[doc(hidden)]
impl From<TensorError> for FlowError {
    fn from(e: TensorError) -> Self {
        FlowError::Tensor(e)
    }
}

/// An opaque full-graph probability pass, as [`Inference::full_pass`] takes it.
pub type FullPass<'a> = &'a dyn Fn(&GraphTensors, &Matrix) -> Result<Vec<f32>, TensorError>;

/// A classifier the flow can drive. The flow asks it one thing — open an
/// [`Inference`] over the current graph state — and puts every later
/// question to that object.
///
/// Implemented for references to [`MultiStageGcn`] (a single `Gcn` is
/// a one-stage cascade), which run one full pass on
/// [`MatrixBackend::serial`] to open a [`CascadeSession`] and serve
/// everything after it from halo refreshes, and
/// blanket-implemented for any
/// `Fn(&GraphTensors, &Matrix) -> Result<Vec<f32>, TensorError>` closure,
/// which gets no session and re-runs the whole pass for every answer.
pub trait FlowClassifier {
    /// Opens the run's inference over graph `t` with features `x`. Every
    /// pass the returned object runs — the opening one included — checks
    /// `budget`. `room` is how many nodes the run may add: a session
    /// allocates its caches once with room for them.
    ///
    /// # Errors
    ///
    /// Returns a tensor error if the model and graph shapes disagree, or
    /// a budget error ([`TensorError::BudgetExceeded`]) from the opening
    /// pass.
    fn open<'a>(
        &'a self,
        t: &GraphTensors,
        x: &Matrix,
        room: usize,
        budget: &'a Budget,
    ) -> Result<Inference<'a>, TensorError>;
}

/// Opaque closures cannot check a budget between layers: each pass is
/// charged whole, up front, so they still participate in budget
/// accounting at call granularity.
impl<F> FlowClassifier for F
where
    F: Fn(&GraphTensors, &Matrix) -> Result<Vec<f32>, TensorError>,
{
    fn open<'a>(
        &'a self,
        _t: &GraphTensors,
        _x: &Matrix,
        _room: usize,
        budget: &'a Budget,
    ) -> Result<Inference<'a>, TensorError> {
        Ok(Inference::full_pass(self, budget))
    }
}

impl FlowClassifier for &MultiStageGcn {
    fn open<'a>(
        &'a self,
        t: &GraphTensors,
        x: &Matrix,
        room: usize,
        budget: &'a Budget,
    ) -> Result<Inference<'a>, TensorError> {
        // Only the opening pass takes a backend, and asks it no more than
        // whether it is fresh: the serial one costs nothing to build.
        let mut backend = MatrixBackend::serial();
        let session =
            CascadeSession::for_cascade_budgeted_with(self, t, x, room, budget, &mut backend)?;
        Ok(Inference::session(session, budget))
    }
}

/// How an [`Inference`] produces probabilities.
enum Engine<'a> {
    /// A live incremental session: one full pass opened it, every later
    /// answer recomputes only the halo of the rows that changed.
    Session(CascadeSession<'a>),
    /// An opaque pass, re-run whole for every answer — the paper's literal
    /// procedure and the reference the session path is tested against.
    FullPass(FullPass<'a>),
}

/// One run's inference: the session (or opaque full pass) a
/// [`FlowClassifier`] opened, the work [`Budget`] every pass checks, and
/// the accounting of what those passes computed. It answers the two
/// questions the flow loop has — the current probabilities, and the
/// positives a previewed insertion would leave in a cone.
pub struct Inference<'a> {
    engine: Engine<'a>,
    stats: InferenceStats,
    budget: &'a Budget,
}

impl<'a> Inference<'a> {
    fn new(engine: Engine<'a>, budget: &'a Budget) -> Self {
        Inference {
            engine,
            stats: InferenceStats::default(),
            budget,
        }
    }

    /// An inference served by an already opened incremental session.
    pub fn session(session: CascadeSession<'a>, budget: &'a Budget) -> Self {
        Self::new(Engine::Session(session), budget)
    }

    /// An inference that re-runs `pass` over the whole graph for every
    /// answer, charging `budget` one row per node before each run.
    pub fn full_pass(pass: FullPass<'a>, budget: &'a Budget) -> Self {
        Self::new(Engine::FullPass(pass), budget)
    }

    /// Accounts the pass that opened a session: the rows it cached
    /// against a full pass's. (A full-pass inference has run nothing yet.)
    fn note_opening_pass(&mut self) {
        if let Engine::Session(s) = &self.engine {
            self.stats
                .note(s.cached_rows(), s.full_rows(s.node_count()));
        }
    }

    /// The current probabilities: refreshes the session with the rows
    /// dirtied since the last consistent point, or runs a full pass.
    fn probs(&mut self, state: &mut FlowState) -> Result<Vec<f32>, FlowError> {
        match &mut self.engine {
            Engine::Session(s) => {
                let dirty = std::mem::take(&mut state.pending_dirty);
                if !dirty.is_empty() {
                    let refreshed =
                        s.refresh_budgeted(&state.tensors, &state.features, &dirty, self.budget);
                    match refreshed {
                        Ok(delta) => self
                            .stats
                            .note(delta.rows_computed(), delta.rows_full_equivalent()),
                        Err(e) => {
                            // A budget stop rolled the session back; put the
                            // dirty rows back too so a retry (with a fresh
                            // budget) still refreshes them.
                            state.pending_dirty = dirty;
                            return Err(e.into());
                        }
                    }
                }
                Ok(s.probs().to_vec())
            }
            Engine::FullPass(pass) => Ok(run_full_pass(
                *pass,
                &mut self.stats,
                self.budget,
                &state.tensors,
                &state.features,
            )?),
        }
    }

    /// Positives inside `cone` under already-patched preview `features`:
    /// a session preview of the cone's probabilities, which computes only
    /// the rows they read and keeps nothing, or a full pass.
    fn positives_after(
        &mut self,
        tensors: &GraphTensors,
        features: &Matrix,
        dirty: &[usize],
        cone: &[NodeId],
        threshold: f32,
    ) -> Result<i64, FlowError> {
        match &mut self.engine {
            Engine::Session(s) => {
                let rows: Vec<usize> = cone.iter().map(|v| v.index()).collect();
                let (probs, rows_computed) =
                    s.probs_after(tensors, features, dirty, &rows, self.budget)?;
                self.stats
                    .note(rows_computed, s.full_rows(tensors.node_count()));
                Ok(probs.iter().filter(|&&p| p >= threshold).count() as i64)
            }
            Engine::FullPass(pass) => {
                let probs = run_full_pass(*pass, &mut self.stats, self.budget, tensors, features)?;
                Ok(positives_in(cone, &probs, threshold))
            }
        }
    }

    /// Adopts a graph grown by a committed insertion; the commit's dirty
    /// rows are refreshed by the next [`Inference::probs`].
    fn adopt(&mut self, tensors: &GraphTensors) {
        if let Engine::Session(s) = &mut self.engine {
            s.sync_nodes(tensors);
        }
    }
}

/// Runs an opaque pass over the whole graph: one row per node, charged
/// before the pass and accounted after it.
fn run_full_pass(
    pass: FullPass<'_>,
    stats: &mut InferenceStats,
    budget: &Budget,
    tensors: &GraphTensors,
    features: &Matrix,
) -> Result<Vec<f32>, TensorError> {
    let rows = tensors.node_count() as u64;
    budget.charge(rows)?;
    let probs = pass(tensors, features)?;
    stats.note(rows, rows);
    Ok(probs)
}

/// Nodes of `cone` predicted positive.
fn positives_in(cone: &[NodeId], probs: &[f32], threshold: f32) -> i64 {
    cone.iter()
        .filter(|&&v| probs.get(v.index()).is_some_and(|&p| p >= threshold))
        .count() as i64
}

/// Configuration of the iterative flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowConfig {
    /// Maximum prediction/insert iterations.
    pub max_iterations: usize,
    /// Observation points inserted per iteration (the "top ranked
    /// locations", §4).
    pub ops_per_iteration: usize,
    /// Positive predictions evaluated for impact per iteration, taken in
    /// decreasing predicted-probability order.
    pub candidate_limit: usize,
    /// A node is a positive prediction if its classifier probability is at
    /// least this.
    pub prob_threshold: f32,
    /// Cap on the fan-in cone size used for impact counting (Fig. 6).
    pub cone_limit: usize,
    /// Maximum failed insertions tolerated across the whole run. A failed
    /// insertion rolls the design back to the state before the attempt
    /// and skips that candidate (recorded in [`FlowOutcome::skipped`]);
    /// once the budget is spent, the next failure propagates. `0` (the
    /// default) disables the snapshotting entirely: every failure is
    /// immediately fatal, exactly as if the budget did not exist.
    pub skip_budget: usize,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            max_iterations: 12,
            ops_per_iteration: 16,
            candidate_limit: 24,
            prob_threshold: 0.5,
            cone_limit: 500,
            skip_budget: 0,
        }
    }
}

/// Per-iteration progress record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IterationStats {
    /// Iteration number (0-based).
    pub iteration: usize,
    /// Positive predictions entering the iteration.
    pub positives: usize,
    /// Observation points inserted this iteration.
    pub inserted: usize,
}

/// Work accounting of every inference the flow ran, in embedding-row
/// units (one unit = one node × one GCN layer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InferenceStats {
    /// Embedding rows actually computed across all inferences.
    pub rows_computed: u64,
    /// Rows the same inferences would have computed as full passes —
    /// `rows_full / rows_computed` is the incremental reuse factor.
    pub rows_full: u64,
    /// Number of inference calls (full passes plus session refreshes).
    pub inferences: u64,
}

impl InferenceStats {
    /// Accounts one inference — a full pass or a session refresh — here
    /// and in the global metrics.
    fn note(&mut self, rows_computed: u64, rows_full: u64) {
        self.rows_computed += rows_computed;
        self.rows_full += rows_full;
        self.inferences += 1;
        let obs = gcnt_obs::global();
        if obs.is_enabled() {
            obs.add(gcnt_obs::counters::DFT_FLOW_ROWS_COMPUTED, rows_computed);
            obs.add(gcnt_obs::counters::DFT_FLOW_ROWS_FULL, rows_full);
            obs.incr(gcnt_obs::counters::DFT_FLOW_INFERENCES);
        }
    }
}

/// Outcome of the iterative flow.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowOutcome {
    /// Nodes that received observation points, in insertion order.
    pub inserted: Vec<NodeId>,
    /// Whether the flow exited because no positive predictions remained.
    pub converged: bool,
    /// Positive predictions remaining at exit.
    pub remaining_positives: usize,
    /// Per-iteration history.
    pub history: Vec<IterationStats>,
    /// Candidates whose insertion failed and was rolled back under
    /// [`FlowConfig::skip_budget`], in the order they were skipped.
    pub skipped: Vec<NodeId>,
    /// Embedding-row accounting of every inference performed.
    pub inference: InferenceStats,
}

/// One committed prediction/insert iteration of a resumable run — the unit
/// a write-ahead journal persists. A prefix of these records, replayed
/// through [`run_gcn_opi_resumable`] against the *original* design, puts
/// the flow back in the exact state it was in when the record was written:
/// the continuation produces a [`FlowOutcome`] bit-identical to an
/// uninterrupted run, inference accounting included.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchRecord {
    /// Iteration number (0-based), matching [`IterationStats::iteration`].
    pub iteration: usize,
    /// Positive predictions entering the iteration.
    pub positives: usize,
    /// Observation points committed this iteration, in insertion order.
    pub inserted: Vec<NodeId>,
    /// Candidates skipped (rolled back) this iteration under
    /// [`FlowConfig::skip_budget`].
    pub skipped: Vec<NodeId>,
    /// Whether this iteration found no positive predictions — the flow
    /// converged and no further batch follows.
    pub converged: bool,
    /// Inference accounting at the moment the record was written.
    pub stats_after: InferenceStats,
}

/// Runs the iterative GCN-guided OP insertion flow, mutating `net`.
///
/// `classify` is the trained model — pass a [`Gcn`] or [`MultiStageGcn`]
/// (or a reference to one) to unlock the incremental fast path; a bare
/// `Fn(&GraphTensors, &Matrix) -> Result<Vec<f32>, TensorError>` closure
/// also works but always runs full inference.
///
/// `normalizer` must be the normaliser the classifier was *trained* with —
/// the flow is inductive and re-applies the training statistics to the
/// modified design.
///
/// A failed insertion normally aborts the flow; with a non-zero
/// [`FlowConfig::skip_budget`] the design is instead rolled back to the
/// state just before the failing attempt and the candidate is skipped
/// (listed in [`FlowOutcome::skipped`]). `net` is always left in the last
/// consistent state, even when an error is returned.
///
/// # Errors
///
/// Returns [`FlowError`] if the netlist is cyclic, the classifier/graph
/// shapes disagree, or an insertion fails with no skip budget left.
pub fn run_gcn_opi<F>(
    net: &mut Netlist,
    normalizer: &FeatureNormalizer,
    classify: F,
    cfg: &FlowConfig,
) -> Result<FlowOutcome, FlowError>
where
    F: FlowClassifier,
{
    run_gcn_opi_resumable(
        net,
        normalizer,
        classify,
        cfg,
        &Budget::unlimited(),
        &[],
        &mut |_| Ok(()),
    )
}

/// [`run_gcn_opi`] under a cooperative work [`Budget`] and resumable, for
/// long-running jobs behind a write-ahead journal.
///
/// Every inference — full passes, session refreshes, impact previews —
/// checks `budget` between GCN layers. A budget stop surfaces as
/// [`TensorError::BudgetExceeded`] with
/// `net` left in the last consistent committed state, so a caller can
/// restart or degrade without repair work.
///
/// `net` must be the **original** (pre-flow) design. `resume` is the
/// prefix of [`BatchRecord`]s a previous run journaled (empty for a fresh
/// run): their insertions are replayed — without re-running prediction or
/// impact scoring — and the journaled [`BatchRecord::stats_after`]
/// accounting is restored, after which the flow continues from the next
/// iteration. `observer` is invoked once per *newly committed* batch
/// (replayed batches are not re-observed); an observer error stops the
/// flow with [`FlowError::Journal`] semantics: the batch stays committed
/// in `net`, but no further un-journaled work happens.
///
/// Replay is idempotent in the sense that resuming from any journaled
/// prefix — including the complete record set — yields a [`FlowOutcome`]
/// bit-identical to the uninterrupted run.
///
/// # Errors
///
/// As [`run_gcn_opi`], plus budget errors from the cooperative
/// checkpoints and whatever `observer` returns.
#[allow(clippy::type_complexity)]
pub fn run_gcn_opi_resumable<F>(
    net: &mut Netlist,
    normalizer: &FeatureNormalizer,
    classify: F,
    cfg: &FlowConfig,
    budget: &Budget,
    resume: &[BatchRecord],
    observer: &mut dyn FnMut(&BatchRecord) -> Result<(), FlowError>,
) -> Result<FlowOutcome, FlowError>
where
    F: FlowClassifier,
{
    run_flow(
        net,
        normalizer,
        classify,
        cfg,
        budget,
        resume,
        commit_insertion,
        observer,
    )
}

/// The incrementally maintained per-run design state: everything an
/// insertion mutates, grouped so a failed insertion can be rolled back as
/// one unit under [`FlowConfig::skip_budget`].
#[derive(Clone)]
struct FlowState {
    net: Netlist,
    tensors: GraphTensors,
    scoap: Scoap,
    /// Normalised features, patched cell by cell. A row is bit-identical
    /// to re-normalising the design's raw attributes, except that an
    /// inserted observation point's row is
    /// [`FeatureNormalizer::observation_point_row`]: the paper's fixed
    /// `[0, 1, 1, 0]`, not its derived level and controllability.
    features: Matrix,
    stale: Vec<bool>,
    /// Feature/structure rows dirtied by commits since the session's last
    /// refresh; drained at the next iteration start.
    pending_dirty: Vec<usize>,
    /// The training normaliser, kept here so the commit step can patch
    /// `features` without re-normalising the design.
    normalizer: FeatureNormalizer,
}

/// Commits one observation point at `target`: structural netlist update,
/// incremental tensor append (which refuses an `op` that is not the
/// tensors' next row), SCOAP refresh over the changed cone, and the new
/// node's normalised attribute row. A failure can leave `state` partly
/// updated — callers that need rollback must snapshot before calling.
fn commit_insertion(state: &mut FlowState, target: NodeId) -> Result<(), FlowError> {
    let op = state.net.insert_observation_point(target)?;
    state.tensors.insert_observation_point(target, op)?;
    let changed = state.scoap.observe(&state.net, target, op);
    for v in changed {
        let i = v.index();
        let sq = squash(state.scoap.co(v));
        state
            .features
            .set(i, 3, state.normalizer.normalize_cell(3, sq));
        if let Some(stale) = state.stale.get_mut(i) {
            *stale = true;
        }
        state.pending_dirty.push(i);
    }
    state
        .features
        .push_row(&state.normalizer.observation_point_row())?;
    // The new OP row and its driver's adjacency row changed structurally,
    // not just attribute-wise; both must enter the next refresh halo.
    state.pending_dirty.push(target.index());
    state.pending_dirty.push(op.index());
    Ok(())
}

/// The flow loop with an injectable commit step — production code enters
/// through [`run_gcn_opi`] and [`run_gcn_opi_resumable`], which commit for
/// real; tests substitute a failing commit to exercise the skip-budget
/// rollback path.
#[allow(clippy::too_many_arguments)]
fn run_flow<F, C>(
    net: &mut Netlist,
    normalizer: &FeatureNormalizer,
    classify: F,
    cfg: &FlowConfig,
    budget: &Budget,
    resume: &[BatchRecord],
    mut commit: C,
    observer: &mut dyn FnMut(&BatchRecord) -> Result<(), FlowError>,
) -> Result<FlowOutcome, FlowError>
where
    F: FlowClassifier,
    C: FnMut(&mut FlowState, NodeId) -> Result<(), FlowError>,
{
    let (data, scoap) = GraphData::featurize(net, Some(normalizer))?;
    let GraphData {
        tensors, features, ..
    } = data;
    let mut state = FlowState {
        tensors,
        net: net.clone(),
        scoap,
        features,
        stale: Vec::new(),
        pending_dirty: Vec::new(),
        normalizer: normalizer.clone(),
    };

    let mut inserted = Vec::new();
    let mut skipped = Vec::new();
    let mut history = Vec::new();
    let mut converged = false;
    let mut remaining = 0usize;
    let mut stats = InferenceStats::default();

    let result = (|| -> Result<(), FlowError> {
        // Replay journaled batches against the original design: commit
        // their insertions without re-running prediction or impact
        // scoring, and restore the journaled accounting. The continuation
        // below then behaves exactly as if this process had run the
        // replayed iterations itself.
        let mut start_iteration = 0usize;
        // Whether the journal shows the iteration loop already exited
        // (convergence or a no-progress iteration).
        let mut loop_done = false;
        // Every insertion observes a distinct node of the design, so the
        // run adds at most one node per node it has.
        let room = cfg
            .max_iterations
            .saturating_mul(cfg.ops_per_iteration)
            .min(state.net.node_count());
        // One inference for the whole run. A resumed run opens it where the
        // journaled run's last refresh left its session — before the last
        // batch, whose insertions it then adopts one by one — so the
        // continuation's session holds, and its refreshes compute, what the
        // uninterrupted run's did. (A converged journal has nothing left to
        // run or count; it skips even the opening, so the budget is not
        // charged for unused work.)
        let mut opened = None;
        let converged_before = resume.iter().any(|rec| rec.converged);
        for (k, rec) in resume.iter().enumerate() {
            if k + 1 == resume.len() && !converged_before {
                opened = Some(classify.open(&state.tensors, &state.features, room, budget)?);
            }
            budget.charge(0)?; // budget checkpoint between batches
            state.stale = vec![false; state.net.node_count()];
            for &target in &rec.inserted {
                commit(&mut state, target)?;
                if let Some(inference) = &mut opened {
                    inference.adopt(&state.tensors);
                }
                inserted.push(target);
            }
            skipped.extend(rec.skipped.iter().copied());
            history.push(IterationStats {
                iteration: rec.iteration,
                positives: rec.positives,
                inserted: rec.inserted.len(),
            });
            remaining = rec.positives;
            if rec.converged {
                converged = true;
                loop_done = true;
            } else if rec.inserted.is_empty() {
                loop_done = true; // the run broke on a no-progress iteration
            }
            // The uninterrupted run drained these dirty rows at the next
            // iteration's refresh — already paid for inside the journaled
            // stats — except for the *last* batch, whose refresh had not
            // happened yet and must be re-done by the continuation.
            if k + 1 < resume.len() {
                state.pending_dirty.clear();
            }
            stats = rec.stats_after;
            start_iteration = rec.iteration + 1;
        }

        if loop_done && converged {
            return Ok(());
        }

        // A session's opening pass is counted — except on resume, where
        // the original run's opening pass is already inside the restored
        // stats.
        let mut inference = match opened {
            Some(inference) => inference,
            None => classify.open(&state.tensors, &state.features, room, budget)?,
        };
        if resume.is_empty() {
            inference.note_opening_pass();
        } else {
            inference.stats = stats;
        }

        let first_iteration = if loop_done {
            cfg.max_iterations // skip straight to the final count
        } else {
            start_iteration
        };
        for iteration in first_iteration..cfg.max_iterations {
            budget.charge(0)?; // budget checkpoint between iterations
            let _iter_span = gcnt_obs::span(gcnt_obs::histograms::DFT_FLOW_ITERATION_NS);
            gcnt_obs::global().incr(gcnt_obs::counters::DFT_FLOW_ITERATIONS);
            let skipped_before = skipped.len();
            let probs = inference.probs(&mut state)?;
            // Positive predictions, excluding nodes that are already
            // observed or are themselves observe points.
            let mut positives: Vec<(NodeId, f32)> = state
                .net
                .nodes()
                .filter(|&v| !matches!(state.net.kind(v), CellKind::Output | CellKind::Dff))
                .filter(|&v| state.scoap.co(v) > 0)
                .filter_map(|v| Some((v, *probs.get(v.index())?)))
                .filter(|&(_, p)| p >= cfg.prob_threshold)
                .collect();
            remaining = positives.len();
            if positives.is_empty() {
                converged = true;
                history.push(IterationStats {
                    iteration,
                    positives: 0,
                    inserted: 0,
                });
                observer(&BatchRecord {
                    iteration,
                    positives: 0,
                    inserted: Vec::new(),
                    skipped: Vec::new(),
                    converged: true,
                    stats_after: inference.stats,
                })?;
                break;
            }
            // Highest-probability candidates first.
            positives.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            positives.truncate(cfg.candidate_limit);

            // Impact evaluation (Fig. 6).
            let mut scored: Vec<(NodeId, i64, f32)> = Vec::with_capacity(positives.len());
            for &(v, p) in &positives {
                let impact = evaluate_impact(&mut state, &mut inference, &probs, v, cfg)?;
                scored.push((v, impact, p));
                gcnt_obs::global().incr(gcnt_obs::counters::DFT_FLOW_CANDIDATES_SCORED);
            }
            scored.sort_by(|a, b| {
                b.1.cmp(&a.1)
                    .then(b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal))
            });

            let mut inserted_now = 0usize;
            // Nodes whose observability improved due to an insertion
            // committed *this* round: their predictions are stale, so defer
            // them to the next iteration's re-inference instead of blindly
            // observing them (one OP at a cone exit typically fixes the
            // whole cone).
            state.stale = vec![false; state.net.node_count()];
            for &(target, _, _) in &scored {
                if inserted_now >= cfg.ops_per_iteration {
                    break;
                }
                if state.scoap.co(target) == 0 || state.stale.get(target.index()) == Some(&true) {
                    continue;
                }
                // Snapshot only while skip budget remains: the default
                // budget of 0 never clones, and a spent budget means the
                // next failure propagates anyway. The inference is not
                // snapshotted: commits never touch it, so after a state
                // rollback it is still consistent with the restored state.
                let snapshot = (skipped.len() < cfg.skip_budget).then(|| state.clone());
                match commit(&mut state, target) {
                    Ok(()) => {
                        inference.adopt(&state.tensors);
                        inserted.push(target);
                        inserted_now += 1;
                        gcnt_obs::global().incr(gcnt_obs::counters::DFT_FLOW_OPS_INSERTED);
                    }
                    Err(e) => match snapshot {
                        Some(prev) => {
                            state = prev;
                            skipped.push(target);
                            gcnt_obs::global().incr(gcnt_obs::counters::DFT_FLOW_SKIPS);
                        }
                        None => return Err(e),
                    },
                }
            }
            history.push(IterationStats {
                iteration,
                positives: remaining,
                inserted: inserted_now,
            });
            observer(&BatchRecord {
                iteration,
                positives: remaining,
                inserted: inserted
                    .get(inserted.len() - inserted_now..)
                    .unwrap_or_default()
                    .to_vec(),
                skipped: skipped.get(skipped_before..).unwrap_or_default().to_vec(),
                converged: false,
                stats_after: inference.stats,
            })?;
            if inserted_now == 0 {
                break; // cannot make progress
            }
        }

        // Final positive count if we exited by iteration cap.
        if !converged {
            let probs = inference.probs(&mut state)?;
            remaining = state
                .net
                .nodes()
                .filter(|&v| !matches!(state.net.kind(v), CellKind::Output | CellKind::Dff))
                .filter(|&v| state.scoap.co(v) > 0)
                .filter(|&v| {
                    probs
                        .get(v.index())
                        .is_some_and(|&p| p >= cfg.prob_threshold)
                })
                .count();
            converged = remaining == 0;
        }
        stats = inference.stats;
        Ok(())
    })();

    // Commit the (always consistent) final state back to the caller, on
    // the error path too — every mutation before the failure survives.
    *net = state.net;
    result?;

    Ok(FlowOutcome {
        inserted,
        converged,
        remaining_positives: remaining,
        history,
        skipped,
        inference: stats,
    })
}

/// Impact of a hypothetical OP at `target`: positive predictions in the
/// fan-in cone before minus after the preview insertion (Fig. 6).
///
/// The previewed attribute rows are patched directly into
/// `state.features` and restored before returning (error paths included),
/// so no full-matrix clone or re-normalisation happens per candidate.
fn evaluate_impact(
    state: &mut FlowState,
    inference: &mut Inference<'_>,
    probs: &[f32],
    target: NodeId,
    cfg: &FlowConfig,
) -> Result<i64, FlowError> {
    let mut cone = state.net.fanin_cone(target, cfg.cone_limit);
    // `fanin_cone` excludes its root today; the guard keeps the apex
    // counted exactly once even if that contract ever changes.
    if !cone.contains(&target) {
        cone.push(target);
    }
    let pos_before = positives_in(&cone, probs, cfg.prob_threshold);
    if pos_before == 0 {
        return Ok(0);
    }
    // Preview the observability improvement directly in the feature
    // matrix, recording an undo list of the touched cells.
    let preview = state.scoap.preview_observe(&state.net, target);
    let mut undo: Vec<(usize, f32)> = Vec::with_capacity(preview.len());
    let mut dirty: Vec<usize> = Vec::with_capacity(preview.len());
    for &(v, co) in &preview {
        let i = v.index();
        undo.push((i, state.features.get(i, 3)));
        let cell = state.normalizer.normalize_cell(3, squash(co));
        state.features.set(i, 3, cell);
        dirty.push(i);
    }
    let pos_after = inference.positives_after(
        &state.tensors,
        &state.features,
        &dirty,
        &cone,
        cfg.prob_threshold,
    );
    // Always restore the previewed cells, error path included.
    for &(i, old) in undo.iter().rev() {
        state.features.set(i, 3, old);
    }
    Ok(pos_before - pos_after?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnt_core::features::{raw_features, RAW_DIM};
    use gcnt_core::Gcn;
    use gcnt_netlist::{generate, logic_levels, GeneratorConfig};
    use proptest::prelude::*;

    fn shadowed_design(seed: u64) -> Netlist {
        let mut cfg = GeneratorConfig::sized("flow", seed, 900);
        cfg.shadow_regions = 3;
        generate(&cfg)
    }

    /// An "oracle" classifier that flags exactly the nodes whose squashed
    /// observability exceeds a threshold — lets us test flow mechanics
    /// without training a model.
    fn oracle(threshold: f32) -> impl Fn(&GraphTensors, &Matrix) -> Result<Vec<f32>, TensorError> {
        move |_t, features| {
            Ok((0..features.rows())
                .map(|r| {
                    // Column 3 is normalised observability; high = hard.
                    if features.get(r, 3) > threshold {
                        0.9
                    } else {
                        0.1
                    }
                })
                .collect())
        }
    }

    #[test]
    fn flow_converges_on_shadowed_design() {
        let mut net = shadowed_design(91);
        let raw = gcnt_core::features::raw_features_of(&net).unwrap();
        let norm = FeatureNormalizer::fit(&[&raw]);
        let cfg = FlowConfig {
            max_iterations: 20,
            ops_per_iteration: 8,
            candidate_limit: 12,
            ..Default::default()
        };
        let outcome = run_gcn_opi(&mut net, &norm, oracle(2.0), &cfg).unwrap();
        assert!(outcome.converged, "flow did not converge: {outcome:?}");
        assert!(!outcome.inserted.is_empty());
        assert_eq!(outcome.remaining_positives, 0);
        // Every inserted node is now directly observable.
        let scoap = Scoap::compute(&net).unwrap();
        for &v in &outcome.inserted {
            assert_eq!(scoap.co(v), 0);
        }
    }

    #[test]
    fn flow_inserts_nothing_when_classifier_is_silent() {
        let mut net = shadowed_design(92);
        let raw = gcnt_core::features::raw_features_of(&net).unwrap();
        let norm = FeatureNormalizer::fit(&[&raw]);
        let silent = |_t: &GraphTensors, f: &Matrix| -> Result<Vec<f32>, TensorError> {
            Ok(vec![0.0; f.rows()])
        };
        let outcome = run_gcn_opi(&mut net, &norm, silent, &FlowConfig::default()).unwrap();
        assert!(outcome.converged);
        assert!(outcome.inserted.is_empty());
        assert_eq!(outcome.history.len(), 1);
        // One full pass decided convergence; nothing else ran.
        assert_eq!(outcome.inference.inferences, 1);
    }

    #[test]
    fn impact_ranking_prefers_cone_covering_nodes() {
        // A chain of hard nodes: observing the chain *end* fixes the whole
        // cone, so the flow should need far fewer OPs than there are
        // positives.
        let mut net = shadowed_design(93);
        let raw = gcnt_core::features::raw_features_of(&net).unwrap();
        let norm = FeatureNormalizer::fit(&[&raw]);
        // Count initial positives under the oracle.
        let features = norm.apply(&raw);
        let initial_positive = (0..features.rows())
            .filter(|&r| features.get(r, 3) > 2.0)
            .count();
        let cfg = FlowConfig {
            max_iterations: 20,
            ops_per_iteration: 4,
            candidate_limit: 16,
            ..Default::default()
        };
        let outcome = run_gcn_opi(&mut net, &norm, oracle(2.0), &cfg).unwrap();
        assert!(outcome.converged);
        assert!(
            outcome.inserted.len() < initial_positive,
            "impact ranking should cover multiple positives per OP: {} OPs for {} positives",
            outcome.inserted.len(),
            initial_positive
        );
    }

    #[test]
    fn history_is_monotone_progress() {
        let mut net = shadowed_design(94);
        let raw = gcnt_core::features::raw_features_of(&net).unwrap();
        let norm = FeatureNormalizer::fit(&[&raw]);
        let outcome = run_gcn_opi(&mut net, &norm, oracle(2.0), &FlowConfig::default()).unwrap();
        // Positives must strictly decrease across iterations until zero.
        for w in outcome.history.windows(2) {
            assert!(
                w[1].positives < w[0].positives,
                "positives did not decrease: {:?}",
                outcome.history
            );
        }
    }

    #[test]
    fn ops_per_iteration_is_respected() {
        let mut net = shadowed_design(95);
        let raw = gcnt_core::features::raw_features_of(&net).unwrap();
        let norm = FeatureNormalizer::fit(&[&raw]);
        let cfg = FlowConfig {
            max_iterations: 1,
            ops_per_iteration: 2,
            candidate_limit: 8,
            ..Default::default()
        };
        let outcome = run_gcn_opi(&mut net, &norm, oracle(2.0), &cfg).unwrap();
        assert!(
            outcome.inserted.len() <= 2,
            "{} inserted",
            outcome.inserted.len()
        );
        assert_eq!(outcome.history.len(), 1);
    }

    #[test]
    fn flow_error_display() {
        let e = FlowError::Netlist(NetlistError::UnknownNode(NodeId::from_index(3)));
        assert!(e.to_string().contains("netlist error"));
        let e = FlowError::Tensor(TensorError::LengthMismatch {
            expected: 1,
            actual: 2,
        });
        assert!(e.to_string().contains("tensor error"));
    }

    #[test]
    fn skip_budget_rolls_back_failed_insertions() {
        let mut reference_net = shadowed_design(98);
        let raw = gcnt_core::features::raw_features_of(&reference_net).unwrap();
        let norm = FeatureNormalizer::fit(&[&raw]);
        let cfg = FlowConfig {
            max_iterations: 20,
            ops_per_iteration: 4,
            candidate_limit: 8,
            skip_budget: 3,
            ..Default::default()
        };
        let reference = run_gcn_opi(&mut reference_net, &norm, oracle(2.0), &cfg).unwrap();
        assert!(reference.skipped.is_empty(), "healthy run skips nothing");

        // Same run, but the first two commit attempts fail transiently.
        let mut net = shadowed_design(98);
        let before = net.node_count();
        let mut failures = 2;
        let outcome = run_flow(
            &mut net,
            &norm,
            oracle(2.0),
            &cfg,
            &Budget::unlimited(),
            &[],
            |state, target| {
                if failures > 0 {
                    failures -= 1;
                    // Poison the state before failing, to prove the rollback
                    // restores it rather than trusting commit to be atomic: a
                    // surviving extra feature row fails the next inference.
                    state.features.push_row(&[9.0; RAW_DIM]).unwrap();
                    return Err(FlowError::Netlist(NetlistError::UnknownNode(target)));
                }
                commit_insertion(state, target)
            },
            &mut |_| Ok(()),
        )
        .unwrap();
        assert_eq!(outcome.skipped.len(), 2, "{:?}", outcome.skipped);
        assert!(outcome.converged, "flow must still converge: {outcome:?}");
        // The rolled-back design keeps an evaluation order of every node.
        assert_eq!(net.node_count(), before + outcome.inserted.len());
        assert_eq!(net.topo_order().len(), net.node_count());
    }

    #[test]
    fn exhausted_skip_budget_propagates_the_error() {
        let mut net = shadowed_design(99);
        let raw = gcnt_core::features::raw_features_of(&net).unwrap();
        let norm = FeatureNormalizer::fit(&[&raw]);
        let cfg = FlowConfig {
            skip_budget: 1,
            ..Default::default()
        };
        let before = net.node_count();
        let err = run_flow(
            &mut net,
            &norm,
            oracle(2.0),
            &cfg,
            &Budget::unlimited(),
            &[],
            |_state, target| Err(FlowError::Netlist(NetlistError::UnknownNode(target))),
            &mut |_| Ok(()),
        )
        .unwrap_err();
        assert!(matches!(err, FlowError::Netlist(_)), "{err}");
        // One skip was rolled back, the second failure aborted: the
        // caller's design is unchanged and consistent.
        assert_eq!(net.node_count(), before);
        assert_eq!(net.topo_order().len(), before);
    }

    #[test]
    fn zero_skip_budget_matches_budgeted_run_when_healthy() {
        let raw_cfg = FlowConfig {
            max_iterations: 20,
            ops_per_iteration: 4,
            ..Default::default()
        };
        let budgeted_cfg = FlowConfig {
            skip_budget: 5,
            ..raw_cfg.clone()
        };
        let mut net_a = shadowed_design(100);
        let mut net_b = shadowed_design(100);
        let raw = gcnt_core::features::raw_features_of(&net_a).unwrap();
        let norm = FeatureNormalizer::fit(&[&raw]);
        let a = run_gcn_opi(&mut net_a, &norm, oracle(2.0), &raw_cfg).unwrap();
        let b = run_gcn_opi(&mut net_b, &norm, oracle(2.0), &budgeted_cfg).unwrap();
        assert_eq!(a, b, "budget must not perturb a failure-free run");
        assert_eq!(net_a, net_b);
    }

    /// Regression pin for the impact score: the apex must be counted
    /// exactly once even when it and its cone are all positive, and the
    /// undo list must leave the feature matrix bit-identical afterwards.
    #[test]
    fn impact_score_counts_cone_nodes_once_and_restores_features() {
        use std::collections::BTreeSet;

        let net = shadowed_design(93);
        let raw = gcnt_core::features::raw_features_of(&net).unwrap();
        let norm = FeatureNormalizer::fit(&[&raw]);
        let pristine = norm.apply(&raw);
        let tensors = GraphTensors::from_netlist(&net);
        let scoap = Scoap::compute(&net).unwrap();
        let cfg = FlowConfig::default();
        let classify = oracle(2.0);
        let probs = classify(&tensors, &pristine).unwrap();
        let mut state = FlowState {
            net: net.clone(),
            tensors: tensors.clone(),
            scoap: scoap.clone(),
            features: pristine.clone(),
            stale: Vec::new(),
            pending_dirty: Vec::new(),
            normalizer: norm.clone(),
        };
        let budget = Budget::unlimited();
        let mut inference = classify.open(&tensors, &pristine, 0, &budget).unwrap();

        let mut checked = 0;
        for target in net.nodes() {
            if probs[target.index()] < cfg.prob_threshold || scoap.co(target) == 0 {
                continue;
            }
            // Independent reference: dedup the cone as a set, preview, and
            // re-normalise the whole design from scratch.
            let mut cone: BTreeSet<NodeId> =
                net.fanin_cone(target, cfg.cone_limit).into_iter().collect();
            cone.insert(target);
            let before = cone
                .iter()
                .filter(|&&v| probs[v.index()] >= cfg.prob_threshold)
                .count() as i64;
            let mut raw2 = raw.clone();
            for (v, co) in scoap.preview_observe(&net, target) {
                raw2.set(v.index(), 3, squash(co));
            }
            let probs2 = classify(&tensors, &norm.apply(&raw2)).unwrap();
            let after = cone
                .iter()
                .filter(|&&v| probs2[v.index()] >= cfg.prob_threshold)
                .count() as i64;

            let impact = evaluate_impact(&mut state, &mut inference, &probs, target, &cfg).unwrap();
            assert_eq!(impact, before - after, "target {target:?}");
            assert_eq!(state.features, pristine, "features must be restored");
            checked += 1;
            if checked >= 10 {
                break;
            }
        }
        assert!(checked > 0, "design has positive candidates");
    }

    /// A seeded (untrained) GCN drives the session path and the full path
    /// (what a closure classifier gets) to the same outcome — the
    /// incremental path must be bit-identical, not just close.
    #[test]
    fn incremental_mode_matches_full_mode_with_a_real_model() {
        use gcnt_core::{GcnConfig, GraphData};

        let net = shadowed_design(101);
        let data = GraphData::from_netlist(&net, None).unwrap();
        let gcn = Gcn::new(
            &GcnConfig {
                embed_dims: vec![8, 8],
                fc_dims: vec![8],
                ..GcnConfig::default()
            },
            &mut gcnt_nn::seeded_rng(7),
        );
        let norm = data.normalizer.clone();
        let cfg = FlowConfig {
            max_iterations: 3,
            ops_per_iteration: 4,
            candidate_limit: 6,
            ..Default::default()
        };

        let mut net_full = net.clone();
        let full_pass = |t: &GraphTensors, x: &Matrix| gcn.predict_proba(t, x);
        let full = run_gcn_opi(&mut net_full, &norm, full_pass, &cfg).unwrap();
        let model = MultiStageGcn::from_stages(vec![gcn.clone()], 0.5);
        let mut net_inc = net.clone();
        let inc = run_gcn_opi(&mut net_inc, &norm, &model, &cfg).unwrap();

        assert_eq!(full.inserted, inc.inserted);
        assert_eq!(full.converged, inc.converged);
        assert_eq!(full.remaining_positives, inc.remaining_positives);
        assert_eq!(full.history, inc.history);
        assert_eq!(full.skipped, inc.skipped);
        assert_eq!(net_full, net_inc);
        // The incremental run did strictly less embedding work.
        if !inc.inserted.is_empty() {
            assert!(
                inc.inference.rows_computed < full.inference.rows_computed,
                "incremental {} vs full {}",
                inc.inference.rows_computed,
                full.inference.rows_computed
            );
        }
        assert_eq!(full.inference.rows_computed, full.inference.rows_full);
    }

    /// A cascade whose session opens on a three-way partitioned backend,
    /// whatever the design size.
    struct Sharded<'g>(&'g MultiStageGcn);

    impl FlowClassifier for Sharded<'_> {
        fn open<'a>(
            &'a self,
            t: &GraphTensors,
            x: &Matrix,
            room: usize,
            budget: &'a Budget,
        ) -> Result<Inference<'a>, TensorError> {
            let mut backend = MatrixBackend::partitioned(t, 3)?;
            let session = CascadeSession::for_cascade_budgeted_with(
                self.0,
                t,
                x,
                room,
                budget,
                &mut backend,
            )?;
            Ok(Inference::session(session, budget))
        }
    }

    fn record_collector(records: &mut Vec<BatchRecord>) -> impl FnMut(&BatchRecord) + '_ {
        move |r| records.push(r.clone())
    }

    /// Resuming from every journaled prefix — empty, mid-run, and the
    /// complete record set — reproduces the uninterrupted outcome and
    /// design bit-identically, inference accounting included.
    #[test]
    fn resume_from_any_prefix_is_bit_identical() {
        use gcnt_core::{GcnConfig, GraphData};

        let net = shadowed_design(103);
        let data = GraphData::from_netlist(&net, None).unwrap();
        let gcn = Gcn::new(
            &GcnConfig {
                embed_dims: vec![8, 8],
                fc_dims: vec![8],
                ..GcnConfig::default()
            },
            &mut gcnt_nn::seeded_rng(9),
        );
        let model = MultiStageGcn::from_stages(vec![gcn], 0.5);
        let norm = data.normalizer.clone();
        let cfg = FlowConfig {
            max_iterations: 4,
            ops_per_iteration: 4,
            candidate_limit: 6,
            ..Default::default()
        };

        let mut records = Vec::new();
        let mut collect = record_collector(&mut records);
        let mut net_ref = net.clone();
        let reference = run_gcn_opi_resumable(
            &mut net_ref,
            &norm,
            &model,
            &cfg,
            &Budget::unlimited(),
            &[],
            &mut |r| {
                collect(r);
                Ok(())
            },
        )
        .unwrap();
        drop(collect);
        assert!(!records.is_empty());

        for cut in 0..=records.len() {
            let mut net_resumed = net.clone();
            let resumed = run_gcn_opi_resumable(
                &mut net_resumed,
                &norm,
                &model,
                &cfg,
                &Budget::unlimited(),
                &records[..cut],
                &mut |_| Ok(()),
            )
            .unwrap();
            assert_eq!(resumed, reference, "prefix of {cut} records diverged");
            assert_eq!(net_resumed, net_ref, "design diverged at prefix {cut}");
        }
    }

    /// Runs the flow through `run_flow`'s commit seam under the
    /// whole-design oracle. After every committed insertion — replayed
    /// ones included — the incrementally maintained tensors and SCOAP must
    /// equal from-scratch rebuilds of the netlist, and every feature row
    /// must equal the re-normalised design's, or the fixed OP row for an
    /// inserted observation point. After every batch, an
    /// inference the same classifier opened on the starting design,
    /// adopted to the batch's graph and refreshed over exactly the rows
    /// the commits dirtied, must serve the bits `fresh` computes over the
    /// batch's tensors and features. Returns the outcome, the journaled
    /// records, and how many insertions and batches were checked.
    fn run_with_oracle<F: FlowClassifier + Copy>(
        net: &mut Netlist,
        norm: &FeatureNormalizer,
        classify: F,
        fresh: FullPass<'_>,
        cfg: &FlowConfig,
        resume: &[BatchRecord],
    ) -> (FlowOutcome, Vec<BatchRecord>, [usize; 2]) {
        use std::cell::{Cell, RefCell};

        let budget = Budget::unlimited();
        let original_nodes = net.node_count();
        let op_row = norm.observation_point_row();
        let tensors = GraphTensors::from_netlist(net);
        let features = norm.apply(&gcnt_core::features::raw_features_of(net).unwrap());
        let mut session = classify.open(&tensors, &features, 0, &budget).unwrap();
        // The state after the latest commit, and every row dirtied since
        // `session` last refreshed.
        let latest: RefCell<(Option<FlowState>, Vec<usize>)> = RefCell::default();
        let (commits, mut batches, mut records) = (Cell::new(0), 0, Vec::new());
        let commit = |state: &mut FlowState, target: NodeId| {
            let before = state.pending_dirty.len();
            commit_insertion(state, target)?;
            assert_eq!(state.tensors, GraphTensors::from_netlist(&state.net));
            assert_eq!(state.scoap, Scoap::compute(&state.net).unwrap());
            let levels = logic_levels(&state.net).unwrap();
            let renormalised = norm.apply(&raw_features(&levels, &state.scoap));
            assert_eq!(state.features.rows(), state.net.node_count());
            for i in 0..state.net.node_count() {
                let expected = if i < original_nodes {
                    renormalised.row(i)
                } else {
                    op_row.as_slice()
                };
                assert_eq!(state.features.row(i), expected, "feature row {i}");
            }
            let mut latest = latest.borrow_mut();
            latest.1.extend_from_slice(&state.pending_dirty[before..]);
            latest.0 = Some(state.clone());
            commits.set(commits.get() + 1);
            Ok(())
        };
        let outcome = run_flow(
            net,
            norm,
            classify,
            cfg,
            &budget,
            resume,
            commit,
            &mut |rec| {
                records.push(rec.clone());
                let mut latest = latest.borrow_mut();
                if let Some(mut state) = latest.0.take() {
                    state.pending_dirty = std::mem::take(&mut latest.1);
                    session.adopt(&state.tensors);
                    let probs = session.probs(&mut state).unwrap();
                    assert_eq!(probs, fresh(&state.tensors, &state.features).unwrap());
                    batches += 1;
                }
                Ok(())
            },
        )
        .unwrap();
        (outcome, records, [commits.get(), batches])
    }

    fn oracle_cfg() -> FlowConfig {
        FlowConfig {
            max_iterations: 4,
            ops_per_iteration: 4,
            candidate_limit: 8,
            ..Default::default()
        }
    }

    /// A shadowed design and a small cascade trained on its observability
    /// tail, so the flow's targets sit where hard cones exit and an
    /// insertion refreshes SCOAP well beyond the target's own fanins.
    fn trained_cascade(seed: u64) -> (Netlist, FeatureNormalizer, MultiStageGcn) {
        use gcnt_core::{GcnConfig, GraphData, MultiStageConfig};

        let net = shadowed_design(seed);
        let scoap = Scoap::compute(&net).unwrap();
        let mut cos: Vec<u32> = net.nodes().map(|v| scoap.co(v)).collect();
        cos.sort_unstable();
        let tail = cos[cos.len() * 9 / 10].max(1);
        let labels = net.nodes().map(|v| u8::from(scoap.co(v) >= tail)).collect();
        let data = GraphData::from_netlist(&net, None)
            .unwrap()
            .with_labels(labels);
        let cfg = MultiStageConfig {
            stages: 2,
            gcn: GcnConfig {
                embed_dims: vec![8, 8],
                fc_dims: vec![8],
                ..GcnConfig::default()
            },
            epochs_per_stage: 30,
            lr: 0.1,
            ..MultiStageConfig::default()
        };
        let (model, _) = MultiStageGcn::train(&cfg, &[&data]).unwrap();
        (net, data.normalizer, model)
    }

    #[test]
    fn every_insertion_of_a_gcn_run_matches_a_rebuild() {
        let (net, norm, model) = trained_cascade(108);
        let gcn = &model.stages()[0];
        let single = MultiStageGcn::from_stages(vec![gcn.clone()], model.filter_threshold());
        let fresh = |t: &GraphTensors, x: &Matrix| gcn.predict_proba(t, x);
        let mut checked_net = net.clone();
        let (outcome, records, checked) =
            run_with_oracle(&mut checked_net, &norm, &single, &fresh, &oracle_cfg(), &[]);
        assert!(outcome.inserted.len() > 4, "{outcome:?}");
        let batches = records.iter().filter(|r| !r.inserted.is_empty()).count();
        assert_eq!(checked, [outcome.inserted.len(), batches]);
        // The oracle's commit seam changes nothing about the run.
        let mut plain_net = net.clone();
        let plain = run_gcn_opi(&mut plain_net, &norm, &single, &oracle_cfg()).unwrap();
        assert_eq!(outcome, plain);
        assert_eq!(checked_net, plain_net);
    }

    #[test]
    fn every_insertion_of_a_cascade_run_and_its_resume_matches_a_rebuild() {
        let (net, norm, model) = trained_cascade(109);
        let fresh = |t: &GraphTensors, x: &Matrix| model.predict_proba(t, x);
        let cfg = oracle_cfg();
        let (outcome, records, checked) =
            run_with_oracle(&mut net.clone(), &norm, &model, &fresh, &cfg, &[]);
        assert!(outcome.inserted.len() > 4, "{outcome:?}");
        assert!(records.len() >= 2, "{records:?}");
        assert_eq!(checked[0], outcome.inserted.len());

        // Resumed after the first batch: the replayed insertions go through
        // the same seam, and the first new batch is checked on a session
        // opened before the replay.
        let (resumed, tail, checked) =
            run_with_oracle(&mut net.clone(), &norm, &model, &fresh, &cfg, &records[..1]);
        assert_eq!(resumed, outcome);
        assert_eq!(tail, records[1..].to_vec());
        assert_eq!(checked[0], outcome.inserted.len());
        assert!(checked[1] >= 1, "no batch after the replay was checked");
    }

    /// The continuation after a replay journals exactly the records the
    /// uninterrupted run journals past the cut point — so a twice-resumed
    /// journal is identical to a once-written one (replay idempotence at
    /// the record level).
    #[test]
    fn continuation_re_journals_the_remaining_records() {
        let net = shadowed_design(104);
        let raw = gcnt_core::features::raw_features_of(&net).unwrap();
        let norm = FeatureNormalizer::fit(&[&raw]);
        let cfg = FlowConfig {
            max_iterations: 20,
            ops_per_iteration: 4,
            candidate_limit: 8,
            ..Default::default()
        };

        let mut records = Vec::new();
        let mut net_ref = net.clone();
        run_gcn_opi_resumable(
            &mut net_ref,
            &norm,
            oracle(2.0),
            &cfg,
            &Budget::unlimited(),
            &[],
            &mut |r| {
                records.push(r.clone());
                Ok(())
            },
        )
        .unwrap();
        assert!(records.len() >= 2, "need a multi-batch run");

        let cut = records.len() / 2;
        let mut tail = Vec::new();
        let mut net_resumed = net.clone();
        run_gcn_opi_resumable(
            &mut net_resumed,
            &norm,
            oracle(2.0),
            &cfg,
            &Budget::unlimited(),
            &records[..cut],
            &mut |r| {
                tail.push(r.clone());
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(tail, records[cut..].to_vec());
    }

    /// An exhausted budget stops the flow with a typed error and leaves
    /// the caller's design in a consistent committed state.
    #[test]
    fn budget_stop_leaves_a_consistent_design() {
        let mut net = shadowed_design(105);
        let raw = gcnt_core::features::raw_features_of(&net).unwrap();
        let norm = FeatureNormalizer::fit(&[&raw]);
        // The oracle closure charges full passes up front; a tiny cap
        // stops the very first classification.
        let err = run_gcn_opi_resumable(
            &mut net,
            &norm,
            oracle(2.0),
            &FlowConfig::default(),
            &Budget::with_cap(1),
            &[],
            &mut |_| Ok(()),
        )
        .unwrap_err();
        assert!(err.is_budget_stop(), "{err}");
    }

    /// An observer refusal stops the flow but keeps the committed batch:
    /// no un-journaled work piles up, and the design stays consistent.
    #[test]
    fn observer_error_aborts_after_the_batch() {
        let mut net = shadowed_design(107);
        let before = net.node_count();
        let raw = gcnt_core::features::raw_features_of(&net).unwrap();
        let norm = FeatureNormalizer::fit(&[&raw]);
        let cfg = FlowConfig {
            max_iterations: 20,
            ops_per_iteration: 2,
            ..Default::default()
        };
        let mut seen = 0usize;
        let err = run_gcn_opi_resumable(
            &mut net,
            &norm,
            oracle(2.0),
            &cfg,
            &Budget::unlimited(),
            &[],
            &mut |r| {
                seen += 1;
                if seen == 1 {
                    assert!(!r.inserted.is_empty());
                    Err(FlowError::Journal("disk full".into()))
                } else {
                    Ok(())
                }
            },
        )
        .unwrap_err();
        assert!(matches!(err, FlowError::Journal(_)), "{err}");
        assert_eq!(seen, 1, "flow must stop at the refused batch");
        // The refused batch's insertions stay committed.
        assert!(net.node_count() > before);
    }

    /// Closures have no session: every preview and every iteration is a
    /// full pass, and the accounting says so.
    #[test]
    fn closures_fall_back_to_full_inference() {
        let mut net = shadowed_design(102);
        let raw = gcnt_core::features::raw_features_of(&net).unwrap();
        let norm = FeatureNormalizer::fit(&[&raw]);
        let cfg = FlowConfig {
            max_iterations: 4,
            ..Default::default()
        };
        let a = run_gcn_opi(&mut net, &norm, oracle(2.0), &cfg).unwrap();
        assert!(!a.inserted.is_empty());
        assert_eq!(a.inference.rows_computed, a.inference.rows_full);
    }

    proptest! {
        // Each case runs two full flows; keep the case count modest.
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The OP-insertion flow is outcome-identical across matrix
        /// backends: same insertions, same history, same final netlist.
        /// The model impls open on the serial backend, so the sharded
        /// opening pass is forced by [`Sharded`].
        #[test]
        fn flow_outcome_is_backend_invariant(
            inputs in 2usize..12,
            gates in 5usize..60,
            design_seed in any::<u64>(),
            seed in any::<u64>(),
        ) {
            use gcnt_core::{GcnConfig, GraphData};

            let net = generate(&GeneratorConfig {
                inputs,
                gates,
                seed: design_seed,
                shadow_regions: 0,
                ..GeneratorConfig::default()
            });
            let data = GraphData::from_netlist(&net, None).unwrap();
            let gcn = Gcn::new(
                &GcnConfig {
                    embed_dims: vec![8, 8],
                    fc_dims: vec![8],
                    ..GcnConfig::default()
                },
                &mut gcnt_nn::seeded_rng(seed),
            );
            let cfg = FlowConfig {
                max_iterations: 3,
                ops_per_iteration: 2,
                candidate_limit: 6,
                ..FlowConfig::default()
            };
            let model = MultiStageGcn::from_stages(vec![gcn], 0.5);
            let mut net_serial = net.clone();
            let serial = run_gcn_opi(&mut net_serial, &data.normalizer, &model, &cfg).unwrap();
            let mut net_part = net.clone();
            let part = run_gcn_opi(&mut net_part, &data.normalizer, Sharded(&model), &cfg).unwrap();
            prop_assert_eq!(serial, part);
            prop_assert_eq!(net_serial, net_part);
        }
    }
}
