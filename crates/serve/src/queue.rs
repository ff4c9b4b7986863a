//! Queueing primitives of the worker pool: a pausable multi-producer
//! shard queue and a counting admission gate.
//!
//! The pool's backpressure story is two-level. Admission happens at the
//! *tenant*: each tenant owns a [`Gate`] bounding its in-flight batches
//! (acquired at submit, released when the worker finishes), so one
//! tenant flooding the server can never occupy more than its configured
//! share of queue space. The [`ShardQueue`] underneath is a plain FIFO
//! per worker shard — its occupancy is bounded by the sum of the tenant
//! capacities mapped to that shard, so it needs no capacity of its own.
//! FIFO order per shard is what makes the whole layer deterministic:
//! a tenant's batches are only ever enqueued from its submitter in
//! program order and only ever popped by its single owning shard, so
//! per-tenant application order is submission order at *any* worker
//! count.
//!
//! Everything is std-only (`Mutex` + `Condvar`); lock poisoning is
//! tolerated by design — a panicking worker must not wedge the queue
//! for every other tenant, so poisoned locks are re-entered with the
//! data as-is (the queue's state is a plain `VecDeque`, valid at every
//! instant the lock is held).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Re-enters a possibly poisoned lock: the protected state is structurally
/// valid at every point a panic could have interrupted it (see module docs).
fn recover<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

struct ShardInner<T> {
    items: VecDeque<T>,
    closed: bool,
    paused: bool,
}

/// A pausable, closable FIFO feeding one worker shard.
pub(crate) struct ShardQueue<T> {
    inner: Mutex<ShardInner<T>>,
    ready: Condvar,
}

impl<T> ShardQueue<T> {
    /// An open, unpaused queue.
    pub fn new() -> Self {
        ShardQueue {
            inner: Mutex::new(ShardInner {
                items: VecDeque::new(),
                closed: false,
                paused: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Enqueues `item`; fails (returning it) once the queue is closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut inner = recover(self.inner.lock());
        if inner.closed {
            return Err(item);
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next item. Returns `None` only when the queue is
    /// closed *and* drained — closing never discards queued work.
    pub fn pop(&self) -> Option<T> {
        let mut inner = recover(self.inner.lock());
        loop {
            if !inner.paused || inner.closed {
                if let Some(item) = inner.items.pop_front() {
                    return Some(item);
                }
                if inner.closed {
                    return None;
                }
            }
            inner = recover(self.ready.wait(inner));
        }
    }

    /// Pauses or resumes delivery (queued items are retained either way).
    pub fn set_paused(&self, paused: bool) {
        recover(self.inner.lock()).paused = paused;
        self.ready.notify_all();
    }

    /// Whether delivery is currently paused.
    pub fn is_paused(&self) -> bool {
        recover(self.inner.lock()).paused
    }

    /// Closes the queue: no new pushes, pops drain the backlog (pausing
    /// is overridden so a close always drains) and then return `None`.
    pub fn close(&self) {
        recover(self.inner.lock()).closed = true;
        self.ready.notify_all();
    }
}

/// A counting admission gate: at most `capacity` acquisitions in flight.
/// The capacity is passed per call (it lives in the server config) so
/// the gate itself stays a dumb counter.
pub(crate) struct Gate {
    depth: Mutex<usize>,
    changed: Condvar,
}

impl Gate {
    pub fn new() -> Self {
        Gate {
            depth: Mutex::new(0),
            changed: Condvar::new(),
        }
    }

    /// Non-blocking admission: `Ok(new_depth)` on success, `Err(depth)`
    /// when the tenant is already at capacity (the load-shedding path).
    pub fn try_acquire(&self, capacity: usize) -> Result<usize, usize> {
        let mut depth = recover(self.depth.lock());
        if *depth >= capacity {
            return Err(*depth);
        }
        *depth += 1;
        Ok(*depth)
    }

    /// Blocking admission: waits until a slot frees up (the backpressure
    /// path). Returns the new depth.
    pub fn acquire_blocking(&self, capacity: usize) -> usize {
        let mut depth = recover(self.depth.lock());
        while *depth >= capacity {
            depth = recover(self.changed.wait(depth));
        }
        *depth += 1;
        *depth
    }

    /// Releases one slot (worker side, after the batch finished).
    pub fn release(&self) {
        let mut depth = recover(self.depth.lock());
        *depth = depth.saturating_sub(1);
        drop(depth);
        self.changed.notify_all();
    }

    /// Current in-flight count.
    pub fn depth(&self) -> usize {
        *recover(self.depth.lock())
    }

    /// Blocks until the gate is fully idle (depth 0) — the quiesce
    /// primitive the deterministic tests use between phases.
    pub fn wait_idle(&self) {
        let mut depth = recover(self.depth.lock());
        while *depth > 0 {
            depth = recover(self.changed.wait(depth));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_survives_pause_and_close() {
        let q: ShardQueue<u32> = ShardQueue::new();
        q.set_paused(true);
        for i in 0..5 {
            q.push(i).expect("open queue accepts");
        }
        q.close();
        // Closed overrides paused: the backlog drains in order.
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
        assert!(q.push(99).is_err(), "closed queue rejects pushes");
    }

    #[test]
    fn pop_blocks_until_push_across_threads() {
        let q: Arc<ShardQueue<u32>> = Arc::new(ShardQueue::new());
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.push(7).expect("open");
        assert_eq!(consumer.join().expect("no panic"), Some(7));
    }

    #[test]
    fn gate_sheds_at_capacity_and_blocks_until_release() {
        let gate = Arc::new(Gate::new());
        assert_eq!(gate.try_acquire(2), Ok(1));
        assert_eq!(gate.try_acquire(2), Ok(2));
        assert_eq!(gate.try_acquire(2), Err(2), "at capacity: shed");
        let g2 = Arc::clone(&gate);
        let blocked = std::thread::spawn(move || g2.acquire_blocking(2));
        std::thread::sleep(std::time::Duration::from_millis(10));
        gate.release();
        assert_eq!(blocked.join().expect("no panic"), 2);
        gate.release();
        gate.release();
        assert_eq!(gate.depth(), 0);
        gate.wait_idle();
    }
}
