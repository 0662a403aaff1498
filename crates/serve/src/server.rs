//! The service itself: a synchronous [`ServeCore`] that answers one
//! request at a time, and a worker-thread [`ServeHandle`] that puts a
//! bounded queue with admission control in front of it.
//!
//! The split keeps every robustness mechanism testable without threads:
//! the core owns deadlines (as [`Budget`] caps), the degradation ladder,
//! the write-ahead journal of flow jobs and the optional page store; the
//! handle owns only admission and dispatch.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread;

use gcnt_core::{
    features::FeatureNormalizer, CascadeSession, GraphData, MatrixBackend, MultiStageGcn,
};
use gcnt_dft::flow::{run_gcn_opi_resumable, FlowConfig, FlowError, FlowOutcome};
use gcnt_netlist::Netlist;
use gcnt_runtime::FaultPlan;
use gcnt_tensor::Budget;

use crate::error::ServeError;
use crate::journal::{FlowJournal, JournalHeader};
use crate::ladder::{ladder, LadderResult, Rung, RungDrop};
use crate::queue::BoundedQueue;
use crate::store::{model_fingerprint, segment_design, JobStore};

/// Probability at or above which a node counts as a positive in
/// [`InferResponse::positives`].
const POSITIVE_THRESHOLD: f32 = 0.5;

/// Service configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Pending requests the bounded queue holds before admission control
    /// rejects with [`ServeError::Overloaded`].
    pub queue_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { queue_capacity: 8 }
    }
}

/// Answer to an inference request.
#[derive(Debug, Clone, PartialEq)]
pub struct InferResponse {
    /// Positive-class probability per node.
    pub probs: Vec<f32>,
    /// Nodes whose probability is at least 0.5.
    pub positives: usize,
    /// The degradation-ladder rung that produced the answer.
    pub rung: Rung,
    /// Rungs abandoned under deadline pressure or cache faults, top-down.
    pub dropped: Vec<RungDrop>,
    /// Embedding-row units of work spent (after any injected latency
    /// multiplier).
    pub spent: u64,
    /// This request's admission index (0-based, per core).
    pub admission_index: u64,
    /// Embedding rows restored from the page store instead of being
    /// recomputed; 0 on a cold (or storeless) answer.
    pub warm_rows: u64,
}

/// Answer to a journaled flow job.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowResponse {
    /// The flow's outcome — bit-identical whether or not the job was
    /// resumed from a journal.
    pub outcome: FlowOutcome,
    /// Batches replayed from the journal before new work started.
    pub resumed_batches: usize,
    /// Records in the journal when the job finished.
    pub journal_records: u64,
    /// Whether recovery discarded a torn (half-written) final record.
    pub recovered_torn_tail: bool,
}

/// The synchronous serving core: model, normaliser, fault plan, and the
/// robustness machinery around them.
pub struct ServeCore {
    model: MultiStageGcn,
    /// [`model_fingerprint`] of `model`, computed by the first
    /// store-backed request.
    model_fingerprint: Option<String>,
    normalizer: FeatureNormalizer,
    config: ServeConfig,
    plan: FaultPlan,
    admitted: u64,
    store: Option<JobStore>,
}

impl ServeCore {
    /// A core around an already-loaded model.
    pub fn new(normalizer: FeatureNormalizer, model: MultiStageGcn, config: ServeConfig) -> Self {
        ServeCore {
            model,
            model_fingerprint: None,
            normalizer,
            config,
            plan: FaultPlan::none(),
            admitted: 0,
            store: None,
        }
    }

    /// Attaches a fault plan (deterministic injection, armed only by
    /// tests; production cores keep [`FaultPlan::none`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self.sync_store_faults();
        self
    }

    /// Attaches a page store: flow journals compact into it (bounding
    /// on-disk journal growth) and incremental answers persist their
    /// embedding pages so a restarted core reloads instead of recomputes.
    pub fn with_store(mut self, store: JobStore) -> Self {
        self.store = Some(store);
        self.sync_store_faults();
        self
    }

    /// Pushes the fault plan's store faults (disk-full) into the
    /// attached page store. Called from both builders so either order of
    /// `with_faults`/`with_store` injects them.
    fn sync_store_faults(&mut self) {
        if let Some(js) = self.store.as_mut() {
            js.store_mut().set_faults(self.plan.store_faults().clone());
        }
    }

    /// The attached page store, if any.
    pub fn store(&self) -> Option<&JobStore> {
        self.store.as_ref()
    }

    /// Mutable access to the attached page store, if any.
    pub fn store_mut(&mut self) -> Option<&mut JobStore> {
        self.store.as_mut()
    }

    /// Requests admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Whether the fault plan saturates admission control.
    pub(crate) fn queue_saturated(&self) -> bool {
        self.plan.queue_saturated()
    }

    /// The warm-restart segment key for `net` under the served model —
    /// [`crate::design_fingerprint`], with the model half computed once
    /// per core instead of once per request.
    fn segment_design(&mut self, net: &Netlist) -> Result<String, ServeError> {
        let model_fp = match &self.model_fingerprint {
            Some(fp) => fp,
            None => self
                .model_fingerprint
                .insert(model_fingerprint(&self.model)?),
        };
        Ok(segment_design(net, model_fp))
    }

    /// The work budget for one request: the caller's deadline, with any
    /// injected latency multiplier applied so a "10× slower machine"
    /// fault consumes deadlines 10× faster.
    fn budget_for(&self, deadline: Option<u64>) -> Budget {
        let budget = match deadline {
            Some(cap) => Budget::with_cap(cap),
            None => Budget::unlimited(),
        };
        budget.with_cost_multiplier(self.plan.latency_multiplier())
    }

    /// Answers one inference request through the degradation ladder.
    /// Every admitted request completes on *some* rung — deadline pressure
    /// degrades quality, never availability.
    ///
    /// With a store attached, an incremental answer first tries to reload
    /// this design's persisted embedding pages (warm restart: classifier
    /// heads only, bit-identical probabilities) and, when it must compute
    /// cold, persists the fresh embeddings for the next restart. A corrupt
    /// page is quarantined and recomputed — degraded speed, never wrong
    /// data.
    ///
    /// # Errors
    ///
    /// [`ServeError::Load`] if the design cannot be featurised,
    /// [`ServeError::Tensor`] on a real model/graph error,
    /// [`ServeError::Store`] if the page store fails environmentally
    /// (I/O, disk-full) — never for corruption, which self-heals.
    pub fn handle_infer(
        &mut self,
        net: &Netlist,
        deadline: Option<u64>,
    ) -> Result<InferResponse, ServeError> {
        let admission_index = self.admitted;
        self.admitted += 1;
        let obs = gcnt_obs::global();
        obs.incr(gcnt_obs::counters::SERVE_REQUESTS);
        let data = GraphData::from_netlist(net, Some(&self.normalizer))
            .map_err(|e| ServeError::Load(format!("design `{}`: {e}", net.name())))?;
        let budget = self.budget_for(deadline);
        let poisoned = self.plan.take_cache_poison(admission_index);

        // Warm restart: reuse embedding pages persisted for this exact
        // (design, model) pair at this graph generation, if the store has
        // them. An injected cache poison skips the warm path too — it
        // must degrade exactly like a stale in-memory cache.
        let fingerprint = match &self.store {
            Some(_) => Some(self.segment_design(net)?),
            None => None,
        };
        if !poisoned {
            if let Some(fp) = &fingerprint {
                let ServeCore { model, store, .. } = self;
                if let Some(js) = store.as_mut() {
                    let loaded = js.load_caches(
                        fp,
                        data.tensors.generation(),
                        data.tensors.node_count() as u64,
                        model,
                    )?;
                    if let Some(caches) = loaded {
                        let rows: u64 = caches
                            .iter()
                            .flat_map(|c| c.layers())
                            .map(|l| l.rows() as u64)
                            .sum();
                        if let Ok(session) = CascadeSession::from_caches(
                            model,
                            &data.tensors,
                            &data.features,
                            caches,
                        ) {
                            obs.add(gcnt_obs::counters::SERVE_STORE_ROWS_LOADED, rows);
                            obs.incr(gcnt_obs::counters::SERVE_RUNG_INCREMENTAL);
                            let probs = session.probs().to_vec();
                            let positives =
                                probs.iter().filter(|&&p| p >= POSITIVE_THRESHOLD).count();
                            return Ok(InferResponse {
                                probs,
                                positives,
                                rung: Rung::Incremental,
                                dropped: Vec::new(),
                                spent: budget.spent(),
                                admission_index,
                                warm_rows: rows,
                            });
                        }
                        // Validation refused the restored caches (model or
                        // graph drifted): fall through to the cold path,
                        // which re-persists fresh pages.
                    }
                }
            }
        }

        // A pass only asks its backend whether it is fresh, and one built
        // here always is: the serial backend costs nothing to build.
        let mut backend = MatrixBackend::serial();
        let ServeCore { model, store, .. } = self;
        let ladder_span = obs.is_enabled().then(std::time::Instant::now);
        let (
            LadderResult {
                probs,
                rung,
                dropped,
            },
            session,
        ) = ladder(
            model,
            &data.tensors,
            &data.features,
            &budget,
            poisoned,
            &mut backend,
        )?;
        if let Some(started) = ladder_span {
            let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let (rung_counter, rung_hist) = match rung {
                Rung::Incremental => (
                    gcnt_obs::counters::SERVE_RUNG_INCREMENTAL,
                    gcnt_obs::histograms::SERVE_RUNG_INCREMENTAL_NS,
                ),
                Rung::FullSparse => (
                    gcnt_obs::counters::SERVE_RUNG_FULL_SPARSE,
                    gcnt_obs::histograms::SERVE_RUNG_FULL_SPARSE_NS,
                ),
                Rung::FirstStage => (
                    gcnt_obs::counters::SERVE_RUNG_FIRST_STAGE,
                    gcnt_obs::histograms::SERVE_RUNG_FIRST_STAGE_NS,
                ),
            };
            obs.incr(rung_counter);
            obs.observe(rung_hist, elapsed);
            obs.add(gcnt_obs::counters::SERVE_RUNG_DROPS, dropped.len() as u64);
            obs.observe(
                gcnt_obs::histograms::SERVE_REQUEST_ROWS_SPENT,
                budget.spent(),
            );
        }
        // A cold incremental answer left later stages filtered: complete
        // every embedding row and persist them so the next restart of this
        // core answers warm. Without a store the session is dropped as is.
        if let (Some(fp), Some(session)) = (&fingerprint, session) {
            if let Some(js) = store.as_mut() {
                let caches = session.into_caches(&data.tensors, &data.features)?;
                let saved = js.save_caches(fp, &caches)?;
                obs.add(gcnt_obs::counters::SERVE_STORE_ROWS_SAVED, saved);
            }
        }
        let positives = probs.iter().filter(|&&p| p >= POSITIVE_THRESHOLD).count();
        Ok(InferResponse {
            probs,
            positives,
            rung,
            dropped,
            spent: budget.spent(),
            admission_index,
            warm_rows: 0,
        })
    }

    /// Runs (or resumes) a journaled flow job. `net` must be the
    /// **original** pre-flow design: on resume, the journal's committed
    /// batches are replayed against it before new work starts, and the
    /// final [`FlowOutcome`] is bit-identical to an uninterrupted run.
    ///
    /// Every committed batch is fsynced to the journal *before* the next
    /// one may start; with an injected kill-after-record fault the process
    /// aborts right after the planned record reaches disk.
    ///
    /// # Errors
    ///
    /// [`ServeError::Journal`] if the journal cannot be recovered or
    /// appended, [`ServeError::Store`] if a store-backed journal's
    /// compacted prefix cannot be read back or a compaction commit fails,
    /// [`ServeError::Flow`] if the flow itself fails — committed batches
    /// stay journaled either way, so a rerun resumes.
    pub fn run_flow_job(
        &mut self,
        net: &mut Netlist,
        cfg: &FlowConfig,
        journal_path: &Path,
        deadline: Option<u64>,
    ) -> Result<FlowResponse, ServeError> {
        let header = JournalHeader::describe(net, cfg)?;
        let budget = self.budget_for(deadline);
        let ServeCore {
            model,
            normalizer,
            plan,
            store,
            ..
        } = self;
        let plan: &FaultPlan = plan;
        let mut store = store.as_mut();
        let recovered = match store.as_mut() {
            Some(js) => FlowJournal::open_with_store(journal_path, &header, js.store_mut())?,
            None => FlowJournal::open(journal_path, &header)?,
        };
        let mut journal = recovered.journal;
        let resumed_batches = recovered.records.len();
        gcnt_obs::global().add(
            gcnt_obs::counters::SERVE_JOURNAL_REPLAYED,
            resumed_batches as u64,
        );
        let mut observer = |rec: &gcnt_dft::flow::BatchRecord| -> Result<(), FlowError> {
            let seq = journal
                .append(rec)
                .map_err(|e| FlowError::Journal(e.to_string()))?;
            if plan.should_kill_after_record(seq) {
                // The deterministic `kill -9`: the record is on disk, the
                // next batch never starts.
                std::process::abort();
            }
            // With a store attached, fold the live tail into pages once
            // it reaches the policy's window — this is what keeps the
            // on-disk journal bounded over long jobs.
            if let Some(js) = store.as_mut() {
                if journal.live_records() >= js.policy().compact_after_records {
                    journal
                        .compact_into(js.store_mut(), plan)
                        .map_err(|e| FlowError::Journal(e.to_string()))?;
                }
            }
            Ok(())
        };
        let outcome = run_gcn_opi_resumable(
            net,
            &*normalizer,
            &*model,
            cfg,
            &budget,
            &recovered.records,
            &mut observer,
        )
        .map_err(ServeError::Flow)?;
        Ok(FlowResponse {
            outcome,
            resumed_batches,
            journal_records: journal.next_seq(),
            recovered_torn_tail: recovered.dropped_torn_tail,
        })
    }
}

/// A job travelling through the bounded queue.
enum Job {
    Infer {
        net: Netlist,
        deadline: Option<u64>,
        reply: mpsc::Sender<Result<InferResponse, ServeError>>,
    },
    Flow {
        net: Netlist,
        cfg: FlowConfig,
        journal: PathBuf,
        deadline: Option<u64>,
        reply: mpsc::Sender<Result<FlowJobResult, ServeError>>,
    },
    /// Test hook, run on the worker thread: park it on a channel so the
    /// queue fills deterministically, or panic the way a bug in a request
    /// handler would.
    #[cfg(test)]
    Run(Box<dyn FnOnce() + Send>),
}

impl fmt::Debug for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Job::Infer { .. } => "Job::Infer",
            Job::Flow { .. } => "Job::Flow",
            #[cfg(test)]
            Job::Run(_) => "Job::Run",
        })
    }
}

/// A completed flow job: the modified design plus the flow's response.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowJobResult {
    /// The design after insertion.
    pub net: Netlist,
    /// Outcome and journal accounting.
    pub response: FlowResponse,
}

/// A pending reply; [`Ticket::wait`] blocks until the worker answers.
pub struct Ticket<T> {
    rx: mpsc::Receiver<Result<T, ServeError>>,
}

impl<T> fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Ticket(..)")
    }
}

impl<T> Ticket<T> {
    /// Blocks for the worker's answer.
    ///
    /// # Errors
    ///
    /// The worker's error, or [`ServeError::WorkerGone`] if it died.
    pub fn wait(self) -> Result<T, ServeError> {
        self.rx.recv().map_err(|_| ServeError::WorkerGone)?
    }
}

/// Held by the worker for its whole life: however the worker exits — the
/// clean drain after `close`, or a panic unwinding out of a handler — the
/// queue is closed and what is left in it dropped, so every queued and
/// every future ticket resolves to [`ServeError::WorkerGone`] instead of
/// waiting on a queue nobody pops.
struct AbandonOnExit(BoundedQueue<Job>);

impl Drop for AbandonOnExit {
    fn drop(&mut self) {
        self.0.abandon();
    }
}

/// The in-process service front end: a bounded queue feeding one worker
/// thread that owns the [`ServeCore`]. Submission never blocks — a full
/// queue rejects immediately with [`ServeError::Overloaded`], which is
/// what keeps a request storm from growing an unbounded backlog.
pub struct ServeHandle {
    queue: BoundedQueue<Job>,
    worker: Option<thread::JoinHandle<ServeCore>>,
    saturated: bool,
}

impl ServeHandle {
    /// Starts the worker thread around `core`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Spawn`] if the OS refuses the worker thread —
    /// nothing was started and `core` is consumed with it.
    pub fn start(core: ServeCore) -> Result<Self, ServeError> {
        let saturated = core.queue_saturated();
        let queue = BoundedQueue::new(core.config.queue_capacity);
        let jobs = queue.clone();
        let worker = thread::Builder::new()
            .name("gcnt-serve-worker".to_string())
            .spawn(move || {
                let jobs = AbandonOnExit(jobs);
                let mut core = core;
                while let Some(job) = jobs.0.pop() {
                    match job {
                        Job::Infer {
                            net,
                            deadline,
                            reply,
                        } => {
                            let _ = reply.send(core.handle_infer(&net, deadline));
                        }
                        Job::Flow {
                            mut net,
                            cfg,
                            journal,
                            deadline,
                            reply,
                        } => {
                            let out = core
                                .run_flow_job(&mut net, &cfg, &journal, deadline)
                                .map(|response| FlowJobResult { net, response });
                            let _ = reply.send(out);
                        }
                        #[cfg(test)]
                        Job::Run(hook) => hook(),
                    }
                }
                core
            })
            .map_err(|e| ServeError::Spawn(e.to_string()))?;
        Ok(ServeHandle {
            queue,
            worker: Some(worker),
            saturated,
        })
    }

    /// Requests pending in the queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    fn admit(&self, job: Job) -> Result<(), ServeError> {
        if self.saturated {
            return Err(ServeError::Overloaded {
                capacity: self.queue.capacity(),
            });
        }
        self.queue.try_push(job).map_err(|(_, e)| e)
    }

    /// Submits an inference request; returns a [`Ticket`] immediately.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] if the queue is full (or saturated by
    /// fault injection), [`ServeError::WorkerGone`] if the worker died;
    /// nothing was enqueued.
    pub fn submit_infer(
        &self,
        net: Netlist,
        deadline: Option<u64>,
    ) -> Result<Ticket<InferResponse>, ServeError> {
        let (reply, rx) = mpsc::channel();
        self.admit(Job::Infer {
            net,
            deadline,
            reply,
        })?;
        Ok(Ticket { rx })
    }

    /// Submits and waits: admission control still applies, the wait does
    /// not.
    ///
    /// # Errors
    ///
    /// As [`ServeHandle::submit_infer`], plus the worker's error.
    pub fn infer(&self, net: Netlist, deadline: Option<u64>) -> Result<InferResponse, ServeError> {
        self.submit_infer(net, deadline)?.wait()
    }

    /// Submits a journaled flow job; returns a [`Ticket`] immediately.
    ///
    /// # Errors
    ///
    /// As [`ServeHandle::submit_infer`].
    pub fn submit_flow(
        &self,
        net: Netlist,
        cfg: FlowConfig,
        journal: PathBuf,
        deadline: Option<u64>,
    ) -> Result<Ticket<FlowJobResult>, ServeError> {
        let (reply, rx) = mpsc::channel();
        self.admit(Job::Flow {
            net,
            cfg,
            journal,
            deadline,
            reply,
        })?;
        Ok(Ticket { rx })
    }

    /// Submits a flow job and waits for it.
    ///
    /// # Errors
    ///
    /// As [`ServeHandle::submit_flow`], plus the worker's error.
    pub fn flow(
        &self,
        net: Netlist,
        cfg: FlowConfig,
        journal: PathBuf,
        deadline: Option<u64>,
    ) -> Result<FlowJobResult, ServeError> {
        self.submit_flow(net, cfg, journal, deadline)?.wait()
    }

    /// Drains the queue, stops the worker, and hands the core back.
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerGone`] if the worker thread panicked — the
    /// core died with it and cannot be handed back.
    pub fn shutdown(mut self) -> Result<ServeCore, ServeError> {
        self.queue.close();
        match self.worker.take() {
            Some(worker) => worker.join().map_err(|_| ServeError::WorkerGone),
            None => Err(ServeError::WorkerGone),
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.queue.close();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnt_core::{Gcn, GcnConfig};
    use gcnt_netlist::{generate, GeneratorConfig};
    use gcnt_nn::seeded_rng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gcnt-serve-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn model() -> (FeatureNormalizer, MultiStageGcn, Netlist) {
        let net = generate(&GeneratorConfig::sized("serve", 11, 200));
        let data = GraphData::from_netlist(&net, None).unwrap();
        let cfg = GcnConfig {
            embed_dims: vec![6, 6],
            fc_dims: vec![6],
            ..GcnConfig::default()
        };
        let stages = vec![
            Gcn::new(&cfg, &mut seeded_rng(31)),
            Gcn::new(&cfg, &mut seeded_rng(32)),
        ];
        (
            data.normalizer,
            MultiStageGcn::from_stages(stages, 0.5),
            net,
        )
    }

    fn core() -> (ServeCore, Netlist) {
        let (normalizer, model, net) = model();
        (
            ServeCore::new(normalizer, model, ServeConfig::default()),
            net,
        )
    }

    /// Parks the worker on a channel until the returned sender is dropped;
    /// returns once the worker has taken the hook off the queue.
    fn park_worker(handle: &ServeHandle) -> mpsc::Sender<()> {
        let (hold_tx, hold_rx) = mpsc::channel::<()>();
        let hook = Job::Run(Box::new(move || {
            let _ = hold_rx.recv();
        }));
        handle.queue.try_push(hook).unwrap();
        while handle.pending() > 0 {
            std::thread::yield_now();
        }
        hold_tx
    }

    #[test]
    fn handle_round_trips_an_inference_request() {
        let (core, net) = core();
        let handle = ServeHandle::start(core).expect("start worker");
        let resp = handle.infer(net.clone(), None).unwrap();
        assert_eq!(resp.rung, Rung::Incremental);
        assert_eq!(resp.probs.len(), net.node_count());
        assert!(resp.spent > 0);
        assert_eq!(resp.admission_index, 0);
        let core = handle.shutdown().expect("worker exits cleanly");
        assert_eq!(core.admitted(), 1);
    }

    #[test]
    fn tight_deadline_degrades_but_completes() {
        let (core, net) = core();
        let handle = ServeHandle::start(core).expect("start worker");
        let resp = handle.infer(net.clone(), Some(3)).unwrap();
        assert_eq!(resp.rung, Rung::FirstStage);
        assert_eq!(resp.dropped.len(), 2);
        assert_eq!(
            resp.probs.len(),
            net.node_count(),
            "zero drops: it answered"
        );
        drop(handle);
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        let (normalizer, model_, net) = model();
        let core = ServeCore::new(normalizer, model_, ServeConfig { queue_capacity: 2 });
        let handle = ServeHandle::start(core).expect("start worker");
        // Park the worker so the queue genuinely fills.
        let hold_tx = park_worker(&handle);
        let t1 = handle.submit_infer(net.clone(), None).unwrap();
        let t2 = handle.submit_infer(net.clone(), None).unwrap();
        let err = handle.submit_infer(net.clone(), None).unwrap_err();
        assert!(matches!(err, ServeError::Overloaded { capacity: 2 }));
        // Release the worker: every *admitted* request still completes.
        drop(hold_tx);
        assert!(t1.wait().is_ok());
        assert!(t2.wait().is_ok());
        drop(handle);
    }

    #[test]
    fn dead_worker_resolves_every_ticket_to_worker_gone() {
        use std::sync::mpsc::RecvTimeoutError;
        use std::time::Duration;

        let (core, net) = core();
        let handle = ServeHandle::start(core).expect("start worker");
        // Behind the parked worker: a job that kills it, then a request
        // that is still queued when it dies.
        let hold_tx = park_worker(&handle);
        let die = Job::Run(Box::new(|| panic!("injected worker death")));
        handle.queue.try_push(die).unwrap();
        let queued = handle.submit_infer(net.clone(), None).unwrap();
        drop(hold_tx);
        assert!(
            matches!(
                queued.rx.recv_timeout(Duration::from_secs(10)),
                Err(RecvTimeoutError::Disconnected)
            ),
            "the queued ticket must hang up, not wait on a dead worker"
        );
        // Later callers are refused at admission — which never blocks.
        assert!(matches!(
            handle.infer(net, None),
            Err(ServeError::WorkerGone)
        ));
        assert!(matches!(handle.shutdown(), Err(ServeError::WorkerGone)));
    }

    #[test]
    fn segment_key_is_the_one_shot_fingerprint() {
        use crate::store::design_fingerprint;
        let (mut core, net) = core();
        let expected = design_fingerprint(&net, &core.model).unwrap();
        // The first call computes the model half, the second reuses it.
        assert_eq!(core.segment_design(&net).unwrap(), expected);
        assert_eq!(core.segment_design(&net).unwrap(), expected);
    }

    #[test]
    fn flow_job_journals_and_resumes_bit_identically() {
        let (mut core, net) = core();
        let cfg = FlowConfig {
            max_iterations: 3,
            ops_per_iteration: 2,
            candidate_limit: 4,
            ..FlowConfig::default()
        };
        let dir = temp_dir("flowjob");

        // Uninterrupted reference run.
        let mut ref_net = net.clone();
        let reference = core
            .run_flow_job(&mut ref_net, &cfg, &dir.join("ref.wal"), None)
            .unwrap();
        assert_eq!(reference.resumed_batches, 0);
        assert!(reference.journal_records > 0);

        // "Killed" run: copy a strict prefix of the reference journal, as
        // if the process died between two records, then resume.
        let text = std::fs::read_to_string(dir.join("ref.wal")).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        for cut in 1..lines.len() {
            let partial = dir.join(format!("cut{cut}.wal"));
            std::fs::write(&partial, lines[..cut].join("\n") + "\n").unwrap();
            let mut resumed_net = net.clone();
            let resumed = core
                .run_flow_job(&mut resumed_net, &cfg, &partial, None)
                .unwrap();
            assert_eq!(resumed.resumed_batches, cut - 1);
            assert_eq!(resumed.outcome, reference.outcome, "cut at {cut}");
            assert_eq!(resumed_net, ref_net, "cut at {cut}");
            assert_eq!(resumed.journal_records, reference.journal_records);
            // The healed journal is byte-identical to the reference one.
            assert_eq!(
                std::fs::read_to_string(&partial).unwrap(),
                text,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn warm_restart_reloads_embeddings_from_pages() {
        use crate::store::StorePolicy;
        let (normalizer, model_, net) = model();
        let dir = temp_dir("warmstore");
        let store = JobStore::open(&dir.join("store"), StorePolicy::default()).unwrap();
        let mut cold_core =
            ServeCore::new(normalizer.clone(), model_.clone(), ServeConfig::default())
                .with_store(store);
        let cold = cold_core.handle_infer(&net, None).unwrap();
        assert_eq!(cold.rung, Rung::Incremental);
        assert_eq!(cold.warm_rows, 0, "first answer computes cold");
        drop(cold_core);

        // A "restarted process": fresh core, same store directory. The
        // base embeddings come back from pages — no full recompute — and
        // the answer is bit-identical.
        let store = JobStore::open(&dir.join("store"), StorePolicy::default()).unwrap();
        let mut warm_core =
            ServeCore::new(normalizer, model_, ServeConfig::default()).with_store(store);
        let warm = warm_core.handle_infer(&net, None).unwrap();
        assert!(warm.warm_rows > 0, "rows were reloaded from the store");
        assert_eq!(warm.rung, Rung::Incremental);
        assert_eq!(warm.probs, cold.probs, "warm restart is bit-identical");
    }

    /// [`model`]'s two stages plus a third, with the filter threshold at
    /// stage 0's 90th percentile so later stages see only a halo.
    fn filtering_model() -> (FeatureNormalizer, MultiStageGcn, Netlist) {
        let (normalizer, two, net) = model();
        let cfg = GcnConfig {
            embed_dims: vec![6, 6],
            fc_dims: vec![6],
            ..GcnConfig::default()
        };
        let mut stages = two.stages().to_vec();
        stages.push(Gcn::new(&cfg, &mut seeded_rng(33)));
        let data = GraphData::from_netlist(&net, Some(&normalizer)).unwrap();
        let mut stage0 = stages[0]
            .predict_proba(&data.tensors, &data.features)
            .unwrap();
        stage0.sort_by(f32::total_cmp);
        let threshold = stage0[stage0.len() * 9 / 10];
        (
            normalizer,
            MultiStageGcn::from_stages(stages, threshold),
            net,
        )
    }

    #[test]
    fn a_storeless_core_and_a_store_backed_one_answer_alike() {
        use crate::store::StorePolicy;
        let (normalizer, model_, net) = filtering_model();
        let data = GraphData::from_netlist(&net, Some(&normalizer)).unwrap();
        let session_rows: u64 = model_
            .stages()
            .iter()
            .map(|g| g.depth() as u64 * net.node_count() as u64)
            .sum();
        let probe = Budget::unlimited();
        model_
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
            "the cascade filters: {filtered_rows} of {session_rows} rows"
        );
        let bits = |probs: &[f32]| probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        let dropped = |r: &InferResponse| {
            r.dropped
                .iter()
                .map(|d| d.rung.as_str())
                .collect::<Vec<_>>()
        };
        let dir = temp_dir("alike");
        let mut rungs = Vec::new();
        let deadlines = [
            None,
            Some(filtered_rows),
            Some(session_rows - 1),
            Some(session_rows),
            Some(3),
        ];
        for (i, deadline) in deadlines.into_iter().enumerate() {
            let storeless =
                ServeCore::new(normalizer.clone(), model_.clone(), ServeConfig::default())
                    .handle_infer(&net, deadline)
                    .unwrap();
            let store =
                JobStore::open(&dir.join(format!("store-{i}")), StorePolicy::default()).unwrap();
            let mut backed =
                ServeCore::new(normalizer.clone(), model_.clone(), ServeConfig::default())
                    .with_store(store);
            let cold = backed.handle_infer(&net, deadline).unwrap();
            assert_eq!(bits(&cold.probs), bits(&storeless.probs), "{deadline:?}");
            assert_eq!(cold.positives, storeless.positives, "{deadline:?}");
            assert_eq!(cold.rung, storeless.rung, "{deadline:?}");
            assert_eq!(dropped(&cold), dropped(&storeless), "{deadline:?}");
            assert_eq!(cold.spent, storeless.spent, "{deadline:?}");
            assert_eq!(
                (cold.warm_rows, storeless.warm_rows),
                (0, 0),
                "{deadline:?}"
            );
            rungs.push(cold.rung);
            if cold.rung == Rung::Incremental {
                // The pages the cold answer saved are complete: every row
                // of every stage comes back, and answers bit for bit.
                let warm = backed.handle_infer(&net, deadline).unwrap();
                assert_eq!(warm.warm_rows, session_rows, "{deadline:?}");
                assert_eq!(bits(&warm.probs), bits(&cold.probs), "{deadline:?}");
            }
        }
        assert_eq!(
            rungs,
            [
                Rung::Incremental,
                Rung::FullSparse,
                Rung::FullSparse,
                Rung::Incremental,
                Rung::FirstStage
            ]
        );
    }

    #[test]
    fn corrupt_embedding_page_recomputes_cold_then_heals() {
        use crate::store::StorePolicy;
        let (normalizer, model_, net) = model();
        let dir = temp_dir("quarantine");
        let store = JobStore::open(&dir.join("store"), StorePolicy::default()).unwrap();
        let mut core = ServeCore::new(normalizer.clone(), model_.clone(), ServeConfig::default())
            .with_store(store);
        let cold = core.handle_infer(&net, None).unwrap();
        drop(core);

        // Flip a byte in the page data: the warm path must quarantine and
        // recompute, never answer from the damaged rows.
        let data_file = dir.join("store").join("pages-0000.dat");
        let mut bytes = std::fs::read(&data_file).unwrap();
        bytes[64] ^= 0x01;
        std::fs::write(&data_file, &bytes).unwrap();

        let store = JobStore::open(&dir.join("store"), StorePolicy::default()).unwrap();
        let mut core = ServeCore::new(normalizer, model_, ServeConfig::default()).with_store(store);
        let healed = core.handle_infer(&net, None).unwrap();
        assert_eq!(healed.warm_rows, 0, "corruption forces a cold recompute");
        assert_eq!(healed.probs, cold.probs, "and the answer is still right");
        // The cold path re-persisted fresh pages: the next request warms.
        let warm = core.handle_infer(&net, None).unwrap();
        assert!(warm.warm_rows > 0, "store healed after recompute");
        assert_eq!(warm.probs, cold.probs);
    }

    #[test]
    fn store_backed_flow_job_compacts_and_stays_bit_identical() {
        use crate::store::StorePolicy;
        let cfg = FlowConfig {
            max_iterations: 3,
            ops_per_iteration: 2,
            candidate_limit: 4,
            ..FlowConfig::default()
        };
        let dir = temp_dir("flowstore");

        // Storeless reference run.
        let (mut ref_core, net) = core();
        let mut ref_net = net.clone();
        let reference = ref_core
            .run_flow_job(&mut ref_net, &cfg, &dir.join("ref.wal"), None)
            .unwrap();
        assert!(reference.journal_records > 0);

        // Store-backed run compacting after every record: the journal
        // file stays at header + marker size for the whole job.
        let policy = StorePolicy {
            compact_after_records: 1,
        };
        let (normalizer, model_, _) = model();
        let store = JobStore::open(&dir.join("store"), policy).unwrap();
        let mut core = ServeCore::new(normalizer, model_, ServeConfig::default()).with_store(store);
        let mut job_net = net.clone();
        let done = core
            .run_flow_job(&mut job_net, &cfg, &dir.join("job.wal"), None)
            .unwrap();
        assert_eq!(done.outcome, reference.outcome, "store changes nothing");
        assert_eq!(job_net, ref_net);
        assert_eq!(done.journal_records, reference.journal_records);
        let wal_bytes = std::fs::metadata(dir.join("job.wal")).unwrap().len();
        assert!(
            wal_bytes <= 4096,
            "compaction bounds the journal ({wal_bytes} bytes)"
        );

        // A rerun resumes every batch out of the compacted pages.
        let mut resumed_net = net.clone();
        let resumed = core
            .run_flow_job(&mut resumed_net, &cfg, &dir.join("job.wal"), None)
            .unwrap();
        assert_eq!(resumed.resumed_batches as u64, done.journal_records);
        assert_eq!(resumed.outcome, reference.outcome);
        assert_eq!(resumed_net, ref_net);
    }

    #[test]
    fn flow_job_through_the_handle() {
        let (core, net) = core();
        let handle = ServeHandle::start(core).expect("start worker");
        let dir = temp_dir("handleflow");
        let cfg = FlowConfig {
            max_iterations: 2,
            ops_per_iteration: 2,
            candidate_limit: 4,
            ..FlowConfig::default()
        };
        let done = handle
            .flow(net.clone(), cfg, dir.join("job.wal"), None)
            .unwrap();
        assert!(done.response.journal_records > 0);
        assert!(done.net.node_count() >= net.node_count());
        drop(handle);
    }

    mod faulted {
        use super::*;

        #[test]
        fn injected_latency_forces_degradation_with_zero_drops() {
            let (normalizer, model_, net) = model();
            // A deadline three full passes wide: comfortable normally,
            // impossible on a "10x slower machine".
            let full_rows: u64 = model_
                .stages()
                .iter()
                .map(|g| g.depth() as u64 * net.node_count() as u64)
                .sum();
            let deadline = Some(3 * full_rows);
            let config = ServeConfig::default();
            let healthy = ServeCore::new(normalizer.clone(), model_.clone(), config);
            let slow = ServeCore::new(normalizer, model_, config)
                .with_faults(FaultPlan::none().with_latency_multiplier(10));
            let h1 = ServeHandle::start(healthy).expect("start worker");
            let h2 = ServeHandle::start(slow).expect("start worker");
            for i in 0..4 {
                let fast = h1.infer(net.clone(), deadline).unwrap();
                assert_eq!(fast.rung, Rung::Incremental, "request {i}");
                let slow = h2.infer(net.clone(), deadline).unwrap();
                assert!(
                    slow.rung > Rung::Incremental,
                    "request {i} must degrade under injected latency"
                );
                assert_eq!(slow.probs.len(), net.node_count(), "request {i} completed");
            }
            drop(h1);
            drop(h2);
        }

        #[test]
        fn saturated_queue_rejects_every_submission() {
            let (normalizer, model_, net) = model();
            let core = ServeCore::new(normalizer, model_, ServeConfig::default())
                .with_faults(FaultPlan::none().with_queue_saturation());
            let handle = ServeHandle::start(core).expect("start worker");
            for _ in 0..3 {
                assert!(matches!(
                    handle.infer(net.clone(), None),
                    Err(ServeError::Overloaded { .. })
                ));
            }
            let core = handle.shutdown().expect("worker exits cleanly");
            assert_eq!(core.admitted(), 0, "rejected requests never ran");
        }

        #[test]
        fn cache_poison_degrades_exactly_the_planned_request() {
            let (normalizer, model_, net) = model();
            let core = ServeCore::new(normalizer, model_, ServeConfig::default())
                .with_faults(FaultPlan::none().with_cache_poison(1));
            let handle = ServeHandle::start(core).expect("start worker");
            assert_eq!(
                handle.infer(net.clone(), None).unwrap().rung,
                Rung::Incremental
            );
            let poisoned = handle.infer(net.clone(), None).unwrap();
            assert_eq!(poisoned.rung, Rung::FullSparse);
            assert_eq!(poisoned.dropped.len(), 1);
            assert_eq!(
                handle.infer(net.clone(), None).unwrap().rung,
                Rung::Incremental
            );
            drop(handle);
        }

        #[test]
        fn disk_full_fails_the_first_page_write_typed_and_the_store_scrubs_clean() {
            use crate::store::StorePolicy;
            let (normalizer, model_, net) = model();
            let dir = temp_dir("diskfull");
            let store = JobStore::open(&dir.join("store"), StorePolicy::default()).unwrap();
            let mut core = ServeCore::new(normalizer, model_, ServeConfig::default())
                .with_faults(FaultPlan::none().with_store_disk_full_after(0))
                .with_store(store);
            let err = core.handle_infer(&net, None).unwrap_err();
            assert!(matches!(err, ServeError::Store(_)), "{err}");
            assert!(err.to_string().contains("disk full"), "{err}");
            let found = core.store_mut().unwrap().store_mut().scrub().unwrap();
            assert!(found.is_empty(), "the refused write left {found:?}");
        }
    }
}
