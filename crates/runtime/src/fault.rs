//! Deterministic fault injection for recovery testing.
//!
//! A [`FaultPlan`] names exact injection points — "poison the gradient at
//! epoch 3", "kill worker 1 at epoch 2", "abort after journal record 4" —
//! so every injected failure is reproducible without a random source. The
//! plan is a test seam: the `with_*` builders are the one way to arm a
//! fault, no input a binary reads can reach them, and production code only
//! ever passes [`FaultPlan::none`], whose hooks all answer "no fault". The
//! hooks run once per epoch, request, journal record or frame, never per
//! row.
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
//!   job, for crash-resume testing;
//! * **store disk-full** and **kill mid-compaction** — the page store
//!   behind a serve core refuses writes, or the process aborts between a
//!   compaction's store commit and its journal rewrite.
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

use gcnt_store::StoreFaults;

/// A plan of faults to inject into a training run or a serving process.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    nan_grad_epoch: Option<usize>,
    kill_worker: Option<(usize, usize)>,
    latency_multiplier: Option<u64>,
    queue_saturation: bool,
    cache_poison_request: Option<u64>,
    kill_after_record: Option<u64>,
    store: StoreFaults,
    kill_mid_compaction: bool,
    net_disconnect_after_frames: Option<u64>,
    net_slow_loris_bytes_per_s: Option<u64>,
    net_corrupt_frame_checksum: Option<u64>,
    net_connect_refused: Option<u64>,
}

impl FaultPlan {
    /// The empty plan: inject nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Poisons the summed gradient with a NaN once, at the given epoch —
    /// a transient numeric fault the divergence guard must catch and roll
    /// back from.
    pub fn with_nan_grads(mut self, epoch: usize) -> Self {
        self.nan_grad_epoch = Some(epoch);
        self
    }

    /// Panics the given worker thread at the given epoch — a died-worker
    /// fault the epoch kernel must recover from by recomputing that
    /// worker's graph on the training thread. (A single graph trains
    /// inline, with no worker to kill.)
    pub fn with_worker_kill(mut self, epoch: usize, worker: usize) -> Self {
        self.kill_worker = Some((epoch, worker));
        self
    }

    /// Hook: corrupts `grads` if this epoch is the planned NaN injection
    /// point. One-shot — the fault is transient, so the retry after
    /// rollback sees clean gradients.
    pub(crate) fn corrupt_grads(&mut self, epoch: usize, grads: &mut gcnt_core::GcnGrads) {
        if self.nan_grad_epoch == Some(epoch) {
            self.nan_grad_epoch = None;
            if let Some(w) = grads.agg_weights.first_mut() {
                *w = f32::NAN;
            }
        }
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
        self.kill_worker == Some((epoch, worker))
    }

    /// Multiplies every embedding-row's budget cost, simulating an N×
    /// slower machine so deadline pressure is reproducible.
    pub fn with_latency_multiplier(mut self, multiplier: u64) -> Self {
        self.latency_multiplier = Some(multiplier.max(1));
        self
    }

    /// Makes admission control behave as if the bounded request queue
    /// were permanently full, so every submission is rejected.
    pub fn with_queue_saturation(mut self) -> Self {
        self.queue_saturation = true;
        self
    }

    /// Poisons the incremental-inference cache for the request with the
    /// given admission index (0-based): its incremental rung fails with a
    /// stale-cache error, forcing the degradation ladder down. One-shot.
    pub fn with_cache_poison(mut self, request_index: u64) -> Self {
        self.cache_poison_request = Some(request_index);
        self
    }

    /// Aborts the process immediately after the write-ahead journal record
    /// with the given sequence number reaches disk — a deterministic
    /// `kill -9` between two committed batches of a flow job.
    pub fn with_kill_after_record(mut self, seq: u64) -> Self {
        self.kill_after_record = Some(seq);
        self
    }

    /// Serving hook: the injected work-cost multiplier (`1` = no fault).
    pub fn latency_multiplier(&self) -> u64 {
        self.latency_multiplier.unwrap_or(1)
    }

    /// Serving hook: whether admission control should pretend the queue
    /// is full.
    pub fn queue_saturated(&self) -> bool {
        self.queue_saturation
    }

    /// Serving hook: whether the request with this admission index should
    /// see a poisoned incremental cache. One-shot — the poison clears once
    /// consumed, so the retry path sees a healthy cache.
    pub fn take_cache_poison(&mut self, request_index: u64) -> bool {
        let hit = self.cache_poison_request == Some(request_index);
        if hit {
            self.cache_poison_request = None;
        }
        hit
    }

    /// Serving hook: whether the process should abort after persisting
    /// the journal record with this sequence number.
    pub fn should_kill_after_record(&self, seq: u64) -> bool {
        self.kill_after_record == Some(seq)
    }

    /// Fails every page-store write after the first `n` with a simulated
    /// disk-full error.
    pub fn with_store_disk_full_after(mut self, n: u64) -> Self {
        self.store = StoreFaults::none().with_disk_full_after(n);
        self
    }

    /// Aborts the process between a journal compaction's store commit and
    /// its journal rewrite — a deterministic `kill -9` at the worst moment
    /// of the compaction protocol.
    pub fn with_kill_mid_compaction(mut self) -> Self {
        self.kill_mid_compaction = true;
        self
    }

    /// Store hook: the faults a page store attached to a serve core
    /// carries.
    pub fn store_faults(&self) -> &StoreFaults {
        &self.store
    }

    /// Store hook: whether the process should abort mid-compaction, after
    /// the store commit but before the journal rewrite.
    pub fn should_kill_mid_compaction(&self) -> bool {
        self.kill_mid_compaction
    }

    /// Severs a network connection once this many frames have been
    /// written on it — the serving side drops the socket instead of
    /// writing the next frame, so a reply the client is waiting for is
    /// lost mid-job. One-shot at the consumer: the net server disarms the
    /// fault after the first severed connection, so the client's
    /// reconnect-and-resume path can be asserted deterministically.
    pub fn with_net_disconnect_after_frames(mut self, frames: u64) -> Self {
        self.net_disconnect_after_frames = Some(frames);
        self
    }

    /// Trickles the bytes of the client's next request frame at the given
    /// rate instead of writing them at once — a deterministic slow-loris
    /// client the server must evict on its per-connection read deadline.
    /// One-shot: the retry after the eviction writes at full speed.
    pub fn with_net_slow_loris(mut self, bytes_per_s: u64) -> Self {
        self.net_slow_loris_bytes_per_s = Some(bytes_per_s.max(1));
        self
    }

    /// Corrupts the checksum of the client's Nth written frame (0-based,
    /// counted per client across reconnects), so the receiver must refuse
    /// the frame (`bad-frame`) instead of decoding a torn payload. One-shot.
    pub fn with_net_corrupt_frame_checksum(mut self, frame_index: u64) -> Self {
        self.net_corrupt_frame_checksum = Some(frame_index);
        self
    }

    /// Fails the client's first `count` connect attempts with a simulated
    /// connection-refused error, exercising retry-with-backoff.
    pub fn with_net_connect_refused(mut self, count: u64) -> Self {
        self.net_connect_refused = Some(count);
        self
    }

    /// Net serving hook: how many written frames a connection survives
    /// before the injected disconnect severs it (`None` = no fault).
    pub fn net_disconnect_after_frames(&self) -> Option<u64> {
        self.net_disconnect_after_frames
    }

    /// Net client hook: the trickle rate for the next frame write, if the
    /// slow-loris fault is armed. One-shot — consuming it disarms it.
    pub fn take_net_slow_loris(&mut self) -> Option<u64> {
        self.net_slow_loris_bytes_per_s.take()
    }

    /// Net client hook: whether the frame with this write index should go
    /// out with a corrupted checksum. One-shot — the retry after the
    /// refusal writes a clean frame.
    pub fn take_net_corrupt_checksum(&mut self, frame_index: u64) -> bool {
        let hit = self.net_corrupt_frame_checksum == Some(frame_index);
        if hit {
            self.net_corrupt_frame_checksum = None;
        }
        hit
    }

    /// Net client hook: whether this connect attempt should fail with a
    /// simulated refusal. Decrements the remaining-refusals budget.
    pub fn take_net_connect_refused(&mut self) -> bool {
        match self.net_connect_refused {
            Some(n) if n > 0 => {
                self.net_connect_refused = Some(n - 1);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_gcn() -> gcnt_core::Gcn {
        gcnt_core::Gcn::new(
            &gcnt_core::GcnConfig {
                embed_dims: vec![2],
                fc_dims: vec![2],
                ..gcnt_core::GcnConfig::default()
            },
            &mut gcnt_nn::seeded_rng(1),
        )
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let mut plan = FaultPlan::none();
        assert!(!plan.should_kill(0, 0));
        assert_eq!(plan.latency_multiplier(), 1);
        assert!(!plan.queue_saturated());
        assert!(!plan.take_cache_poison(0));
        assert!(!plan.should_kill_after_record(0));
        assert!(!plan.should_kill_mid_compaction());
        assert_eq!(plan.net_disconnect_after_frames(), None);
        assert_eq!(plan.take_net_slow_loris(), None);
        assert!(!plan.take_net_corrupt_checksum(0));
        assert!(!plan.take_net_connect_refused());
        let mut grads = tiny_gcn().zero_grads();
        plan.corrupt_grads(0, &mut grads);
        assert!(grads.is_finite());
    }

    #[test]
    fn planned_faults_fire_once() {
        let mut plan = FaultPlan::none().with_nan_grads(2).with_worker_kill(1, 0);
        assert!(plan.should_kill(1, 0));
        assert!(!plan.should_kill(1, 1));
        assert!(!plan.should_kill(2, 0));
        let gcn = tiny_gcn();
        let mut grads = gcn.zero_grads();
        plan.corrupt_grads(1, &mut grads);
        assert!(grads.is_finite(), "wrong epoch must not fire");
        plan.corrupt_grads(2, &mut grads);
        assert!(!grads.is_finite(), "planned epoch must fire");
        let mut grads2 = gcn.zero_grads();
        plan.corrupt_grads(2, &mut grads2);
        assert!(grads2.is_finite(), "fault is one-shot");
    }

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

    #[test]
    fn store_faults_fire_deterministically() {
        assert!(FaultPlan::none()
            .with_kill_mid_compaction()
            .should_kill_mid_compaction());
        // The plan's store faults are the page store's own: armed, they
        // refuse a write once the allowance is spent.
        let dir = std::env::temp_dir().join(format!("gcnt-fault-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan::none().with_store_disk_full_after(0);
        let mut store = gcnt_store::PageStore::open(&dir)
            .unwrap()
            .with_faults(plan.store_faults().clone());
        let key = gcnt_store::SegmentKey {
            design: "d".to_string(),
            kind: "k".to_string(),
            generation: 0,
            start: 0,
            end: 1,
        };
        let err = store.put_segment(&key, b"x").unwrap_err();
        assert!(err.to_string().contains("disk full"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
