//! The bounded admission queue: explicit backpressure instead of unbounded
//! buffering, and close-then-drain semantics for graceful shutdown.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back so the caller can
    /// reject with a retry hint.
    Full(T),
    /// The queue is closed (shutdown began); nothing is admitted any more.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Consumers currently blocked inside [`AdmissionQueue::pop`].
    waiters: usize,
}

/// A bounded MPMC queue: producers get an immediate `Full` rejection at
/// capacity (no blocking producers — backpressure is the *client's* problem,
/// surfaced as a retry-after), consumers block until an item arrives or the
/// queue is closed **and** drained.
pub struct AdmissionQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> AdmissionQueue<T> {
    /// An open queue admitting at most `capacity` queued items.
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
                waiters: 0,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently queued items.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admits an item, or refuses with [`PushError::Full`] /
    /// [`PushError::Closed`].
    ///
    /// # Errors
    ///
    /// Returns the item back inside the error so no request is ever lost
    /// silently.
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Takes the next item, blocking while the queue is open but empty.
    /// Returns `None` once the queue is closed **and** fully drained — the
    /// worker-exit signal: every admitted request is still handed out first.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner.waiters += 1;
            inner = self.ready.wait(inner).unwrap();
            inner.waiters -= 1;
        }
    }

    /// Consumers currently blocked in [`AdmissionQueue::pop`]. A rendezvous
    /// hook for deterministic tests ("spin until N workers are parked") —
    /// not a scheduling signal.
    pub fn waiters(&self) -> usize {
        self.inner.lock().unwrap().waiters
    }

    /// Closes admission (new pushes fail) and wakes every blocked consumer.
    /// Queued items remain poppable — close-then-drain is how graceful
    /// shutdown completes every admitted request.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn full_queue_rejects_with_the_item() {
        let q = AdmissionQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        match q.push(3) {
            Err(PushError::Full(item)) => assert_eq!(item, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.len(), 2);
        // Draining one slot re-opens admission.
        assert_eq!(q.pop(), Some(1));
        q.push(3).unwrap();
    }

    #[test]
    fn closed_queue_rejects_but_drains() {
        let q = AdmissionQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert!(matches!(q.push(3), Err(PushError::Closed(3))));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_consumers_wake_on_close() {
        let q = Arc::new(AdmissionQueue::<u32>::new(4));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || q.pop())
            })
            .collect();
        // Deterministic rendezvous: wait until all three consumers are
        // *observably parked* in `pop` before closing — no timing
        // assumption, so a loaded CI machine can't turn this into a race.
        // (If wakeup were broken this would hang and trip the test
        // timeout rather than flake-pass.)
        while q.waiters() < 3 {
            std::thread::yield_now();
        }
        q.push(9).unwrap_or_else(|_| panic!("open queue"));
        q.close();
        let got: Vec<Option<u32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(got.iter().filter(|g| g.is_some()).count(), 1);
        assert_eq!(got.iter().filter(|g| g.is_none()).count(), 2);
        assert_eq!(q.waiters(), 0);
    }

    #[test]
    fn mpmc_delivery_is_exactly_once() {
        let q = Arc::new(AdmissionQueue::<u64>::new(1024));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for i in 0..512 {
            // Capacity 1024 and only 512 pushes: never Full.
            q.push(i).unwrap_or_else(|_| panic!("push {i}"));
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..512).collect::<Vec<u64>>());
    }
}
