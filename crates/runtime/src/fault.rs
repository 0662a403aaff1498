//! Deterministic fault injection for recovery testing.
//!
//! A [`FaultPlan`] names exact injection points — "poison the gradient at
//! epoch 3", "kill worker 1 at epoch 2", "abort after journal record 4" —
//! so every injected failure is reproducible without a random source. The
//! injection hooks compile to no-ops unless the `fault-inject` cargo
//! feature is on, so production builds carry no fault paths; the CI
//! fault-injection jobs run the test-suite and the `gcnt loadgen`
//! network fault matrix with the feature enabled.
//!
//! Beyond the training faults, the plan carries *serving-path* faults for
//! the long-lived inference/flow service:
//!
//! * **latency** — a work-cost multiplier, making every embedding row
//!   cost N budget units so deadline pressure is reproducible;
//! * **queue saturation** — admission control behaves as if the bounded
//!   queue were full;
//! * **stale-cache poisoning** — the incremental rung of one request
//!   fails with a stale-cache error, forcing the degradation ladder down;
//! * **kill after journal record** — the process aborts right after the
//!   Nth write-ahead record reaches disk, between two batches of a flow
//!   job, for crash-resume testing.
//!
//! And *network* faults for the TCP serving layer (`gcnt-net`):
//!
//! * **disconnect-after-frame(N)** — the server severs a connection once
//!   N frames were written on it, losing an in-flight reply;
//! * **slow-loris(bytes/s)** — the client trickles one request frame so
//!   the server's read deadline must evict it;
//! * **corrupt-frame-checksum** — one client frame goes out with a broken
//!   checksum the receiver must refuse (`bad-frame`);
//! * **connect-refused(count)** — the client's first N connect attempts
//!   fail, exercising retry-with-backoff.

/// A plan of faults to inject into a training run or a serving process.
/// With the `fault-inject` feature disabled this is always the empty
/// plan.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    #[cfg(feature = "fault-inject")]
    nan_grad_epoch: Option<usize>,
    #[cfg(feature = "fault-inject")]
    kill_worker: Option<(usize, usize)>,
    #[cfg(feature = "fault-inject")]
    latency_multiplier: Option<u64>,
    #[cfg(feature = "fault-inject")]
    queue_saturation: bool,
    #[cfg(feature = "fault-inject")]
    cache_poison_request: Option<u64>,
    #[cfg(feature = "fault-inject")]
    kill_after_record: Option<u64>,
    #[cfg(feature = "fault-inject")]
    store_disk_full_after: Option<u64>,
    #[cfg(feature = "fault-inject")]
    kill_mid_compaction: bool,
    #[cfg(feature = "fault-inject")]
    net_disconnect_after_frames: Option<u64>,
    #[cfg(feature = "fault-inject")]
    net_slow_loris_bytes_per_s: Option<u64>,
    #[cfg(feature = "fault-inject")]
    net_corrupt_frame_checksum: Option<u64>,
    #[cfg(feature = "fault-inject")]
    net_connect_refused: Option<u64>,
}

// A production build carries no fault state: a field left outside the
// feature gate, or a `with_*` builder writing one, breaks the default build.
#[cfg(not(feature = "fault-inject"))]
const _: () = assert!(std::mem::size_of::<FaultPlan>() == 0);

impl FaultPlan {
    /// The empty plan: inject nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Poisons the summed gradient with a NaN once, at the given epoch —
    /// a transient numeric fault the divergence guard must catch and roll
    /// back from.
    #[cfg(feature = "fault-inject")]
    pub fn with_nan_grads(mut self, epoch: usize) -> Self {
        self.nan_grad_epoch = Some(epoch);
        self
    }

    /// Panics the given worker thread at the given epoch — a died-worker
    /// fault the epoch kernel must recover from by recomputing that
    /// worker's graph on the training thread. (A single graph trains
    /// inline, with no worker to kill.)
    #[cfg(feature = "fault-inject")]
    pub fn with_worker_kill(mut self, epoch: usize, worker: usize) -> Self {
        self.kill_worker = Some((epoch, worker));
        self
    }

    /// Hook: corrupts `grads` if this epoch is the planned NaN injection
    /// point. One-shot — the fault is transient, so the retry after
    /// rollback sees clean gradients.
    pub(crate) fn corrupt_grads(&mut self, epoch: usize, grads: &mut gcnt_core::GcnGrads) {
        #[cfg(feature = "fault-inject")]
        if self.nan_grad_epoch == Some(epoch) {
            self.nan_grad_epoch = None;
            if let Some(w) = grads.agg_weights.first_mut() {
                *w = f32::NAN;
            }
        }
        let _ = (epoch, grads);
    }

    /// Hook: the injected died-worker fault. Panics the calling worker
    /// thread if the plan kills it at this epoch.
    #[expect(
        clippy::panic,
        reason = "the injected died-worker fault itself, handed to `epoch_grads` as its per-worker hook; the kernel's recovery path catches the unwound thread"
    )]
    pub(crate) fn kill_if_planned(&self, epoch: usize, worker: usize) {
        if self.should_kill(epoch, worker) {
            panic!("injected fault: worker {worker} killed at epoch {epoch}");
        }
    }

    /// Whether the given worker should die at the given epoch.
    pub(crate) fn should_kill(&self, epoch: usize, worker: usize) -> bool {
        #[cfg(feature = "fault-inject")]
        {
            self.kill_worker == Some((epoch, worker))
        }
        #[cfg(not(feature = "fault-inject"))]
        {
            let _ = (epoch, worker);
            false
        }
    }

    /// Multiplies every embedding-row's budget cost, simulating an N×
    /// slower machine so deadline pressure is reproducible.
    #[cfg(feature = "fault-inject")]
    pub fn with_latency_multiplier(mut self, multiplier: u64) -> Self {
        self.latency_multiplier = Some(multiplier.max(1));
        self
    }

    /// Makes admission control behave as if the bounded request queue
    /// were permanently full, so every submission is rejected.
    #[cfg(feature = "fault-inject")]
    pub fn with_queue_saturation(mut self) -> Self {
        self.queue_saturation = true;
        self
    }

    /// Poisons the incremental-inference cache for the request with the
    /// given admission index (0-based): its incremental rung fails with a
    /// stale-cache error, forcing the degradation ladder down. One-shot.
    #[cfg(feature = "fault-inject")]
    pub fn with_cache_poison(mut self, request_index: u64) -> Self {
        self.cache_poison_request = Some(request_index);
        self
    }

    /// Aborts the process immediately after the write-ahead journal record
    /// with the given sequence number reaches disk — a deterministic
    /// `kill -9` between two committed batches of a flow job.
    #[cfg(feature = "fault-inject")]
    pub fn with_kill_after_record(mut self, seq: u64) -> Self {
        self.kill_after_record = Some(seq);
        self
    }

    /// Serving hook: the injected work-cost multiplier (`1` = no fault).
    pub fn latency_multiplier(&self) -> u64 {
        #[cfg(feature = "fault-inject")]
        {
            self.latency_multiplier.unwrap_or(1)
        }
        #[cfg(not(feature = "fault-inject"))]
        {
            1
        }
    }

    /// Serving hook: whether admission control should pretend the queue
    /// is full.
    pub fn queue_saturated(&self) -> bool {
        #[cfg(feature = "fault-inject")]
        {
            self.queue_saturation
        }
        #[cfg(not(feature = "fault-inject"))]
        {
            false
        }
    }

    /// Serving hook: whether the request with this admission index should
    /// see a poisoned incremental cache. One-shot — the poison clears once
    /// consumed, so the retry path sees a healthy cache.
    pub fn take_cache_poison(&mut self, request_index: u64) -> bool {
        #[cfg(feature = "fault-inject")]
        {
            if self.cache_poison_request == Some(request_index) {
                self.cache_poison_request = None;
                return true;
            }
            false
        }
        #[cfg(not(feature = "fault-inject"))]
        {
            let _ = request_index;
            false
        }
    }

    /// Serving hook: whether the process should abort after persisting
    /// the journal record with this sequence number.
    pub fn should_kill_after_record(&self, seq: u64) -> bool {
        #[cfg(feature = "fault-inject")]
        {
            self.kill_after_record == Some(seq)
        }
        #[cfg(not(feature = "fault-inject"))]
        {
            let _ = seq;
            false
        }
    }

    /// Fails every page-store write after the first `n` with a simulated
    /// disk-full error.
    #[cfg(feature = "fault-inject")]
    pub fn with_store_disk_full_after(mut self, n: u64) -> Self {
        self.store_disk_full_after = Some(n);
        self
    }

    /// Aborts the process between a journal compaction's store commit and
    /// its journal rewrite — a deterministic `kill -9` at the worst moment
    /// of the compaction protocol.
    #[cfg(feature = "fault-inject")]
    pub fn with_kill_mid_compaction(mut self) -> Self {
        self.kill_mid_compaction = true;
        self
    }

    /// Store hook: the injected disk-full threshold (page writes allowed
    /// before writes start failing), if any.
    pub fn store_disk_full_after(&self) -> Option<u64> {
        #[cfg(feature = "fault-inject")]
        {
            self.store_disk_full_after
        }
        #[cfg(not(feature = "fault-inject"))]
        {
            None
        }
    }

    /// Store hook: whether the process should abort mid-compaction, after
    /// the store commit but before the journal rewrite.
    pub fn should_kill_mid_compaction(&self) -> bool {
        #[cfg(feature = "fault-inject")]
        {
            self.kill_mid_compaction
        }
        #[cfg(not(feature = "fault-inject"))]
        {
            false
        }
    }

    /// Severs a network connection once this many frames have been
    /// written on it — the serving side drops the socket instead of
    /// writing the next frame, so a reply the client is waiting for is
    /// lost mid-job. One-shot at the consumer: the net server disarms the
    /// fault after the first severed connection, so the client's
    /// reconnect-and-resume path can be asserted deterministically.
    #[cfg(feature = "fault-inject")]
    pub fn with_net_disconnect_after_frames(mut self, frames: u64) -> Self {
        self.net_disconnect_after_frames = Some(frames);
        self
    }

    /// Trickles the bytes of the client's next request frame at the given
    /// rate instead of writing them at once — a deterministic slow-loris
    /// client the server must evict on its per-connection read deadline.
    /// One-shot: the retry after the eviction writes at full speed.
    #[cfg(feature = "fault-inject")]
    pub fn with_net_slow_loris(mut self, bytes_per_s: u64) -> Self {
        self.net_slow_loris_bytes_per_s = Some(bytes_per_s.max(1));
        self
    }

    /// Corrupts the checksum of the client's Nth written frame (0-based,
    /// counted per client across reconnects), so the receiver must refuse
    /// the frame (`bad-frame`) instead of decoding a torn payload. One-shot.
    #[cfg(feature = "fault-inject")]
    pub fn with_net_corrupt_frame_checksum(mut self, frame_index: u64) -> Self {
        self.net_corrupt_frame_checksum = Some(frame_index);
        self
    }

    /// Fails the client's first `count` connect attempts with a simulated
    /// connection-refused error, exercising retry-with-backoff.
    #[cfg(feature = "fault-inject")]
    pub fn with_net_connect_refused(mut self, count: u64) -> Self {
        self.net_connect_refused = Some(count);
        self
    }

    /// Net serving hook: how many written frames a connection survives
    /// before the injected disconnect severs it (`None` = no fault).
    pub fn net_disconnect_after_frames(&self) -> Option<u64> {
        #[cfg(feature = "fault-inject")]
        {
            self.net_disconnect_after_frames
        }
        #[cfg(not(feature = "fault-inject"))]
        {
            None
        }
    }

    /// Net client hook: the trickle rate for the next frame write, if the
    /// slow-loris fault is armed. One-shot — consuming it disarms it.
    pub fn take_net_slow_loris(&mut self) -> Option<u64> {
        #[cfg(feature = "fault-inject")]
        {
            self.net_slow_loris_bytes_per_s.take()
        }
        #[cfg(not(feature = "fault-inject"))]
        {
            None
        }
    }

    /// Net client hook: whether the frame with this write index should go
    /// out with a corrupted checksum. One-shot — the retry after the
    /// refusal writes a clean frame.
    pub fn take_net_corrupt_checksum(&mut self, frame_index: u64) -> bool {
        #[cfg(feature = "fault-inject")]
        {
            if self.net_corrupt_frame_checksum == Some(frame_index) {
                self.net_corrupt_frame_checksum = None;
                return true;
            }
            false
        }
        #[cfg(not(feature = "fault-inject"))]
        {
            let _ = frame_index;
            false
        }
    }

    /// Net client hook: whether this connect attempt should fail with a
    /// simulated refusal. Decrements the remaining-refusals budget.
    pub fn take_net_connect_refused(&mut self) -> bool {
        #[cfg(feature = "fault-inject")]
        {
            match self.net_connect_refused {
                Some(0) | None => false,
                Some(n) => {
                    self.net_connect_refused = Some(n - 1);
                    true
                }
            }
        }
        #[cfg(not(feature = "fault-inject"))]
        {
            false
        }
    }

    /// Parses a plan from JSON, e.g.
    /// `{"latency_multiplier": 10, "kill_after_record": 1}`. Recognised
    /// keys are the faults a `--faults` reader (`gcnt netserve`, `gcnt
    /// loadgen`) can inject: `latency_multiplier`, `queue_saturation`
    /// (bool), `cache_poison_request`, `kill_after_record`,
    /// `net_disconnect_after_frames`, `net_slow_loris_bytes_per_s`,
    /// `net_corrupt_frame_checksum`, `net_connect_refused`. Every other
    /// key is rejected, so neither a typo nor a fault no reader has a
    /// hook for (a trainer's, a page store's) can be silently inert; those
    /// are planned with the `with_*` builders.
    ///
    /// Only available with the `fault-inject` feature: a production build
    /// cannot be handed a fault plan at all.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or unknown field.
    #[cfg(feature = "fault-inject")]
    pub fn from_json(json: &str) -> Result<Self, String> {
        use serde::Value;

        let value: Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
        let Value::Object(fields) = value else {
            return Err("fault plan must be a JSON object".to_string());
        };
        let as_u64 = |v: &Value, key: &str| -> Result<u64, String> {
            match v {
                Value::Number(n) => n
                    .as_u64()
                    .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
                _ => Err(format!("`{key}` must be a non-negative integer")),
            }
        };
        let mut plan = FaultPlan::none();
        for (key, v) in &fields {
            match key.as_str() {
                "latency_multiplier" => {
                    plan.latency_multiplier = Some(as_u64(v, key)?.max(1));
                }
                "queue_saturation" => match v {
                    Value::Bool(b) => plan.queue_saturation = *b,
                    _ => return Err("`queue_saturation` must be a boolean".to_string()),
                },
                "cache_poison_request" => plan.cache_poison_request = Some(as_u64(v, key)?),
                "kill_after_record" => plan.kill_after_record = Some(as_u64(v, key)?),
                "net_disconnect_after_frames" => {
                    plan.net_disconnect_after_frames = Some(as_u64(v, key)?);
                }
                "net_slow_loris_bytes_per_s" => {
                    plan.net_slow_loris_bytes_per_s = Some(as_u64(v, key)?.max(1));
                }
                "net_corrupt_frame_checksum" => {
                    plan.net_corrupt_frame_checksum = Some(as_u64(v, key)?);
                }
                "net_connect_refused" => plan.net_connect_refused = Some(as_u64(v, key)?),
                other => return Err(format!("unknown fault plan field `{other}`")),
            }
        }
        Ok(plan)
    }
}

/// Truncates a file to half its length — a torn-write simulation for
/// checkpoint recovery tests.
///
/// # Panics
///
/// Panics on filesystem errors (test helper).
#[cfg(feature = "fault-inject")]
#[expect(
    clippy::expect_used,
    reason = "documented-panic fault-injection helpers (`truncate_file`/`flip_byte`), feature-gated to fault-inject builds"
)]
pub fn truncate_file(path: &std::path::Path) {
    let mut bytes = std::fs::read(path).expect("read file to truncate");
    bytes.truncate(bytes.len() / 2);
    std::fs::write(path, bytes).expect("write truncated file");
}

/// Flips one bit at the given byte offset — a bit-rot simulation for
/// checksum tests.
///
/// # Panics
///
/// Panics on filesystem errors or an out-of-range offset (test helper).
#[cfg(feature = "fault-inject")]
#[expect(
    clippy::expect_used,
    reason = "documented-panic fault-injection helpers (`truncate_file`/`flip_byte`), feature-gated to fault-inject builds"
)]
#[expect(
    clippy::indexing_slicing,
    reason = "documented-panic fault-injection helpers; an out-of-range offset is a test bug, not runtime input"
)]
pub fn flip_byte(path: &std::path::Path, offset: usize) {
    let mut bytes = std::fs::read(path).expect("read file to corrupt");
    bytes[offset] ^= 0x01;
    std::fs::write(path, bytes).expect("write corrupted file");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let mut plan = FaultPlan::none();
        assert!(!plan.should_kill(0, 0));
        assert_eq!(plan.latency_multiplier(), 1);
        assert!(!plan.queue_saturated());
        assert!(!plan.take_cache_poison(0));
        assert!(!plan.should_kill_after_record(0));
        assert_eq!(plan.store_disk_full_after(), None);
        assert!(!plan.should_kill_mid_compaction());
        assert_eq!(plan.net_disconnect_after_frames(), None);
        assert_eq!(plan.take_net_slow_loris(), None);
        assert!(!plan.take_net_corrupt_checksum(0));
        assert!(!plan.take_net_connect_refused());
        let gcn = gcnt_core::Gcn::new(
            &gcnt_core::GcnConfig {
                embed_dims: vec![2],
                fc_dims: vec![2],
                ..gcnt_core::GcnConfig::default()
            },
            &mut gcnt_nn::seeded_rng(1),
        );
        let mut grads = gcn.zero_grads();
        plan.corrupt_grads(0, &mut grads);
        assert!(grads.is_finite());
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn planned_faults_fire_once() {
        let mut plan = FaultPlan::none().with_nan_grads(2).with_worker_kill(1, 0);
        assert!(plan.should_kill(1, 0));
        assert!(!plan.should_kill(1, 1));
        assert!(!plan.should_kill(2, 0));
        let gcn = gcnt_core::Gcn::new(
            &gcnt_core::GcnConfig {
                embed_dims: vec![2],
                fc_dims: vec![2],
                ..gcnt_core::GcnConfig::default()
            },
            &mut gcnt_nn::seeded_rng(1),
        );
        let mut grads = gcn.zero_grads();
        plan.corrupt_grads(1, &mut grads);
        assert!(grads.is_finite(), "wrong epoch must not fire");
        plan.corrupt_grads(2, &mut grads);
        assert!(!grads.is_finite(), "planned epoch must fire");
        let mut grads2 = gcn.zero_grads();
        plan.corrupt_grads(2, &mut grads2);
        assert!(grads2.is_finite(), "fault is one-shot");
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn serving_faults_fire_deterministically() {
        let mut plan = FaultPlan::none()
            .with_latency_multiplier(10)
            .with_queue_saturation()
            .with_cache_poison(2)
            .with_kill_after_record(4);
        assert_eq!(plan.latency_multiplier(), 10);
        assert!(plan.queue_saturated());
        assert!(!plan.take_cache_poison(1));
        assert!(plan.take_cache_poison(2));
        assert!(!plan.take_cache_poison(2), "cache poison is one-shot");
        assert!(plan.should_kill_after_record(4));
        assert!(!plan.should_kill_after_record(3));
        // A zero multiplier clamps to the no-fault value.
        assert_eq!(
            FaultPlan::none()
                .with_latency_multiplier(0)
                .latency_multiplier(),
            1
        );
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn network_faults_fire_deterministically() {
        let mut plan = FaultPlan::none()
            .with_net_disconnect_after_frames(3)
            .with_net_slow_loris(20)
            .with_net_corrupt_frame_checksum(1)
            .with_net_connect_refused(2);
        assert_eq!(plan.net_disconnect_after_frames(), Some(3));
        assert_eq!(plan.take_net_slow_loris(), Some(20));
        assert_eq!(plan.take_net_slow_loris(), None, "slow loris is one-shot");
        assert!(!plan.take_net_corrupt_checksum(0));
        assert!(plan.take_net_corrupt_checksum(1));
        assert!(
            !plan.take_net_corrupt_checksum(1),
            "checksum corruption is one-shot"
        );
        assert!(plan.take_net_connect_refused());
        assert!(plan.take_net_connect_refused());
        assert!(
            !plan.take_net_connect_refused(),
            "refusal budget is exhausted"
        );
        // A zero trickle rate clamps to one byte per second.
        assert_eq!(
            FaultPlan::none()
                .with_net_slow_loris(0)
                .take_net_slow_loris(),
            Some(1)
        );
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn plan_parses_from_json() {
        let mut plan = FaultPlan::from_json(
            r#"{"latency_multiplier": 10, "queue_saturation": true,
                "cache_poison_request": 3, "kill_after_record": 1}"#,
        )
        .unwrap();
        assert_eq!(plan.latency_multiplier(), 10);
        assert!(plan.queue_saturated());
        assert!(plan.take_cache_poison(3));
        assert!(plan.should_kill_after_record(1));
        // No `--faults` reader has a trainer or a page store, so their
        // faults are refused rather than parsed into an inert plan.
        for json in [
            r#"{"nan_grad_epoch": 2}"#,
            r#"{"kill_worker": [1, 0]}"#,
            r#"{"store_disk_full_after": 2}"#,
            r#"{"kill_mid_compaction": true}"#,
        ] {
            let err = FaultPlan::from_json(json).unwrap_err();
            assert!(err.contains("unknown fault plan field"), "{json}: {err}");
        }
        assert_eq!(
            FaultPlan::none()
                .with_store_disk_full_after(5)
                .store_disk_full_after(),
            Some(5)
        );
        assert!(FaultPlan::none()
            .with_kill_mid_compaction()
            .should_kill_mid_compaction());

        let mut net_plan = FaultPlan::from_json(
            r#"{"net_disconnect_after_frames": 2, "net_slow_loris_bytes_per_s": 16,
                "net_corrupt_frame_checksum": 0, "net_connect_refused": 3}"#,
        )
        .unwrap();
        assert_eq!(net_plan.net_disconnect_after_frames(), Some(2));
        assert_eq!(net_plan.take_net_slow_loris(), Some(16));
        assert!(net_plan.take_net_corrupt_checksum(0));
        assert!(net_plan.take_net_connect_refused());

        assert_eq!(FaultPlan::from_json("{}").unwrap().latency_multiplier(), 1);
        assert!(FaultPlan::from_json(r#"{"typo_field": 1}"#).is_err());
        assert!(FaultPlan::from_json(r#"{"latency_multiplier": -4}"#).is_err());
        assert!(FaultPlan::from_json("[]").is_err());
    }
}
