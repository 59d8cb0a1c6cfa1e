//! One engine shard: a bounded queue + condvar pair owned by a single
//! model (or by the control plane), with its own [`ShardCounters`].
//!
//! Sharding is the serve-side answer to the interference the paper
//! models on the GPU: with one shared queue, a slow or quarantined
//! model head-of-line-blocks every other model's requests. Giving each
//! registered model its own queue and worker set bounds the blast
//! radius — the slow model's queue fills and sheds, the fast models
//! never see it.
//!
//! The type is deliberately dumb: push with backpressure, blocking
//! batch pop, depth, counters. Worker spawning, routing, and the atomic
//! shard-map swap on `load`/`reload` live in the engine.

use crate::metrics::{ShardCounters, ShardSnapshot};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// Name of the shard that serves non-predict commands and requests
/// whose model cannot be resolved at submit time (the name is invalid
/// for registry models, so it can never collide).
pub(crate) const CONTROL_SHARD: &str = "_control";

/// A bounded MPMC job queue for one model's workers.
#[derive(Debug)]
pub(crate) struct Shard<J> {
    name: String,
    capacity: usize,
    queue: Mutex<VecDeque<J>>,
    nonempty: Condvar,
    counters: ShardCounters,
}

impl<J> Shard<J> {
    pub(crate) fn new(name: impl Into<String>, capacity: usize) -> Self {
        Self {
            name: name.into(),
            capacity,
            queue: Mutex::new(VecDeque::new()),
            nonempty: Condvar::new(),
            counters: ShardCounters::new(),
        }
    }

    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    pub(crate) fn counters(&self) -> &ShardCounters {
        &self.counters
    }

    /// Enqueues a job, or hands it back if the shard is at capacity
    /// (counted as shed). `on_enqueued` runs under the queue lock, so
    /// anything it publishes is visible before any worker can drain the
    /// job — the engine counts `received` there.
    pub(crate) fn try_push(&self, job: J, on_enqueued: impl FnOnce()) -> Result<(), J> {
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if queue.len() >= self.capacity {
            drop(queue);
            self.counters.shed.inc();
            return Err(job);
        }
        queue.push_back(job);
        self.counters.enqueued.inc();
        on_enqueued();
        drop(queue);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Blocks until jobs are available or `shutdown` is set, then
    /// drains up to `max` jobs. Returns `None` exactly when shutting
    /// down with an empty queue — the worker-exit condition (pending
    /// jobs are still drained and answered during shutdown).
    pub(crate) fn pop_batch(&self, max: usize, shutdown: &AtomicBool) -> Option<Vec<J>> {
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if !queue.is_empty() {
                let take = queue.len().min(max);
                return Some(queue.drain(..take).collect());
            }
            if shutdown.load(Ordering::Acquire) {
                return None;
            }
            queue = self
                .nonempty
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Wakes every waiting worker (shutdown broadcast).
    pub(crate) fn notify_all(&self) {
        self.nonempty.notify_all();
    }

    /// Jobs currently queued.
    pub(crate) fn depth(&self) -> usize {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Point-in-time view for `stats` and the exposition.
    pub(crate) fn snapshot(&self) -> ShardSnapshot {
        self.counters.snapshot(&self.name, self.depth())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn push_pop_respects_capacity_and_counts() {
        let shard = Shard::new("m", 2);
        let shutdown = AtomicBool::new(false);
        assert!(shard.try_push(1, || {}).is_ok());
        assert!(shard.try_push(2, || {}).is_ok());
        assert_eq!(shard.try_push(3, || {}), Err(3));
        assert_eq!(shard.depth(), 2);
        let snap = shard.snapshot();
        assert_eq!((snap.enqueued, snap.shed, snap.queue_depth), (2, 1, 2));
        let batch = shard.pop_batch(8, &shutdown).expect("has jobs");
        assert_eq!(batch, vec![1, 2]);
        assert_eq!(shard.depth(), 0);
    }

    #[test]
    fn on_enqueued_runs_under_the_lock_before_any_drain() {
        let shard = Arc::new(Shard::new("m", 8));
        let flag = Arc::new(AtomicBool::new(false));
        let shutdown = Arc::new(AtomicBool::new(false));
        let consumer = {
            let (shard, flag, shutdown) = (shard.clone(), flag.clone(), shutdown.clone());
            std::thread::spawn(move || {
                let batch = shard.pop_batch(1, &shutdown).expect("job arrives");
                // The enqueue callback's store must be visible here.
                assert!(flag.load(Ordering::Acquire), "callback not ordered");
                batch[0]
            })
        };
        shard
            .try_push(7, || flag.store(true, Ordering::Release))
            .expect("capacity 8");
        assert_eq!(consumer.join().expect("consumer clean"), 7);
    }

    #[test]
    fn shutdown_drains_pending_then_returns_none() {
        let shard: Shard<u32> = Shard::new("m", 8);
        let shutdown = AtomicBool::new(false);
        shard.try_push(5, || {}).expect("capacity");
        shutdown.store(true, Ordering::Release);
        shard.notify_all();
        assert_eq!(shard.pop_batch(4, &shutdown), Some(vec![5]));
        assert_eq!(shard.pop_batch(4, &shutdown), None);
    }
}
