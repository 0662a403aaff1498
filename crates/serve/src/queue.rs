//! A bounded multi-producer request queue with non-blocking admission.
//!
//! Admission control is the service's memory-safety valve: a producer that
//! cannot enqueue gets [`ServeError::Overloaded`] *immediately* instead of
//! blocking or growing an unbounded backlog, so a request storm cannot OOM
//! the process. The consumer side blocks — the single worker drains the
//! queue at its own pace.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::error::ServeError;

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> Shared<T> {
    /// Locks the state, recovering from poisoning. Every mutation under
    /// this lock is a single `VecDeque` op or a bool store — a producer
    /// that panicked mid-critical-section cannot leave the state torn,
    /// so propagating the poison would only turn one dead request into
    /// a dead service.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A bounded FIFO queue shared between request producers and the worker.
pub struct BoundedQueue<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for BoundedQueue<T> {
    fn clone(&self) -> Self {
        BoundedQueue {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` pending items
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    items: VecDeque::new(),
                    closed: false,
                }),
                ready: Condvar::new(),
                capacity: capacity.max(1),
            }),
        }
    }

    /// The queue's capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Pending items right now.
    pub fn len(&self) -> usize {
        self.shared.lock().items.len()
    }

    /// Whether no items are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues without blocking. A full or closed queue rejects with
    /// [`ServeError::Overloaded`] / [`ServeError::WorkerGone`] and hands
    /// the item back untouched.
    ///
    /// # Errors
    ///
    /// See above; the item rides along so the caller can reply to it.
    pub fn try_push(&self, item: T) -> Result<(), (T, ServeError)> {
        let mut state = self.shared.lock();
        if state.closed {
            return Err((item, ServeError::WorkerGone));
        }
        if state.items.len() >= self.shared.capacity {
            gcnt_obs::global().incr(gcnt_obs::counters::SERVE_ADMISSION_REJECTS);
            return Err((
                item,
                ServeError::Overloaded {
                    capacity: self.shared.capacity,
                },
            ));
        }
        state.items.push_back(item);
        let obs = gcnt_obs::global();
        if obs.is_enabled() {
            let depth = state.items.len() as f64;
            obs.gauge_set(gcnt_obs::gauges::SERVE_QUEUE_DEPTH, depth);
            obs.gauge_max(gcnt_obs::gauges::SERVE_QUEUE_DEPTH_HIGH_WATER, depth);
        }
        drop(state);
        self.shared.ready.notify_one();
        Ok(())
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// drained; `None` means no item will ever come again.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.shared.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                gcnt_obs::global().gauge_set(
                    gcnt_obs::gauges::SERVE_QUEUE_DEPTH,
                    state.items.len() as f64,
                );
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .shared
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: future pushes fail, and consumers drain what is
    /// left before seeing `None`.
    pub fn close(&self) {
        self.shared.lock().closed = true;
        self.shared.ready.notify_all();
    }

    /// Closes the queue and drops whatever is still pending — for a
    /// consumer that will never pop again. An item that owns a reply
    /// channel thereby hangs up on its waiter instead of leaving it
    /// blocked on a queue nobody drains.
    pub fn abandon(&self) {
        let orphans = {
            let mut state = self.shared.lock();
            state.closed = true;
            std::mem::take(&mut state.items)
        };
        self.shared.ready.notify_all();
        // Dropped outside the lock: an item's drop may do arbitrary work.
        drop(orphans);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_queue_rejects_without_blocking() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let (item, err) = q.try_push(3).unwrap_err();
        assert_eq!(item, 3);
        assert!(matches!(err, ServeError::Overloaded { capacity: 2 }));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pop_drains_in_fifo_order_and_frees_capacity() {
        let q = BoundedQueue::new(1);
        q.try_push(10).unwrap();
        assert_eq!(q.pop(), Some(10));
        q.try_push(11).unwrap();
        assert_eq!(q.pop(), Some(11));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert!(matches!(
            q.try_push(2).unwrap_err().1,
            ServeError::WorkerGone
        ));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn abandon_closes_and_drops_what_is_pending() {
        let q = BoundedQueue::new(4);
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        q.try_push(tx).unwrap();
        q.abandon();
        assert!(rx.recv().is_err(), "the queued sender was dropped");
        assert!(q.is_empty());
        let (tx, _rx) = std::sync::mpsc::channel::<()>();
        assert!(matches!(
            q.try_push(tx).unwrap_err().1,
            ServeError::WorkerGone
        ));
        assert!(q.pop().is_none());
    }

    #[test]
    fn consumer_blocks_until_producer_arrives() {
        let q = BoundedQueue::new(1);
        let q2 = q.clone();
        let consumer = std::thread::spawn(move || q2.pop());
        q.try_push(42).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(42));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(1).unwrap();
        assert!(q.try_push(2).is_err());
    }
}
