//! Content-keyed request coalescing.
//!
//! The serve layer's artifacts are content-addressed, so two in-flight
//! requests with the same content key are asking for *the same region
//! execution*. The [`BatchMap`] turns that observation into single-flight
//! batching: the first arrival **reserves** the key and becomes the batch
//! leader (it runs the execution); every later same-key arrival **joins**
//! the open batch and parks a waiter. When the leader finishes it **closes**
//! the batch and fans the result out to every waiter.
//!
//! Hash keys alone would make a 64-bit FNV collision silently serve request
//! A with request B's result, so every entry carries an exact `guard`
//! (canonical bytes of the request body). A key match with a guard mismatch
//! is reported as [`JoinOutcome::Collision`] and the caller falls back to
//! an unbatched execution — correctness never rests on hash uniqueness.

use std::collections::HashMap;
use std::sync::Mutex;

/// What happened when a request offered itself for coalescing.
#[derive(Debug)]
pub enum JoinOutcome<W> {
    /// No open batch held this key: the caller is now the **leader**. Its
    /// waiter is handed back (the leader replies to itself directly) and it
    /// must eventually call [`BatchMap::close`] (or [`BatchMap::cancel`])
    /// exactly once with the same key.
    Reserved(W),
    /// An open batch held this key and the guard matched: the waiter was
    /// parked and will receive the leader's result at close.
    Joined,
    /// An open batch held this key but the guard differed (a 64-bit hash
    /// collision). The waiter is handed back; the caller must execute
    /// unbatched.
    Collision(W),
}

struct Batch<W> {
    guard: Vec<u8>,
    waiters: Vec<W>,
}

/// Running totals for the `Metrics` verb and the soak benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batches closed (== leader executions that had the chance to batch).
    pub executions: u64,
    /// Waiters that joined an open batch (requests that skipped execution).
    pub joined: u64,
    /// Largest single-batch occupancy observed (leader + waiters).
    pub max_occupancy: u64,
    /// Guard mismatches on a key hit (expected: 0).
    pub collisions: u64,
}

/// A map of open batches keyed by content hash. `W` is whatever the caller
/// parks per waiter (a response callback, a channel sender, …).
pub struct BatchMap<W> {
    open: Mutex<HashMap<u64, Batch<W>>>,
    stats: Mutex<BatchStats>,
}

impl<W> Default for BatchMap<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> BatchMap<W> {
    /// An empty map with zeroed stats.
    pub fn new() -> Self {
        Self {
            open: Mutex::new(HashMap::new()),
            stats: Mutex::new(BatchStats::default()),
        }
    }

    /// Offer a request for coalescing under `key`. `guard` must be a
    /// canonical exact representation of the request (two requests batch
    /// only if their guards are byte-identical); the leader's is kept, by
    /// move, for as long as its batch is open.
    pub fn join_or_reserve(&self, key: u64, guard: Vec<u8>, waiter: W) -> JoinOutcome<W> {
        let mut open = self.open.lock().expect("batch map poisoned");
        match open.get_mut(&key) {
            None => {
                open.insert(
                    key,
                    Batch {
                        guard,
                        waiters: Vec::new(),
                    },
                );
                JoinOutcome::Reserved(waiter)
            }
            Some(batch) if batch.guard == guard => {
                batch.waiters.push(waiter);
                self.stats.lock().expect("batch stats poisoned").joined += 1;
                JoinOutcome::Joined
            }
            Some(_) => {
                self.stats.lock().expect("batch stats poisoned").collisions += 1;
                JoinOutcome::Collision(waiter)
            }
        }
    }

    /// Close the batch the caller leads: removes the entry and returns the
    /// parked waiters for fan-out. Requests arriving after this point open
    /// a fresh batch.
    pub fn close(&self, key: u64) -> Vec<W> {
        let waiters = match self.open.lock().expect("batch map poisoned").remove(&key) {
            Some(batch) => batch.waiters,
            None => Vec::new(),
        };
        let mut stats = self.stats.lock().expect("batch stats poisoned");
        stats.executions += 1;
        stats.max_occupancy = stats.max_occupancy.max(1 + waiters.len() as u64);
        waiters
    }

    /// Abandon the batch without counting an execution (leader panicked or
    /// was rejected before running). Waiters are returned so the caller can
    /// fail them individually.
    pub fn cancel(&self, key: u64) -> Vec<W> {
        match self.open.lock().expect("batch map poisoned").remove(&key) {
            Some(batch) => batch.waiters,
            None => Vec::new(),
        }
    }

    /// Number of waiters currently parked in the open batch for `key`
    /// (0 when no batch is open). Test/metrics hook.
    pub fn occupancy(&self, key: u64) -> u64 {
        self.open
            .lock()
            .expect("batch map poisoned")
            .get(&key)
            .map_or(0, |b| 1 + b.waiters.len() as u64)
    }

    /// Snapshot of the running totals.
    pub fn stats(&self) -> BatchStats {
        *self.stats.lock().expect("batch stats poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leader_then_joiners_then_fanout() {
        let m: BatchMap<u32> = BatchMap::new();
        assert!(matches!(
            m.join_or_reserve(7, "body".into(), 0),
            JoinOutcome::Reserved(_)
        ));
        assert!(matches!(
            m.join_or_reserve(7, "body".into(), 1),
            JoinOutcome::Joined
        ));
        assert!(matches!(
            m.join_or_reserve(7, "body".into(), 2),
            JoinOutcome::Joined
        ));
        assert_eq!(m.occupancy(7), 3);
        let waiters = m.close(7);
        assert_eq!(waiters, vec![1, 2]);
        assert_eq!(m.occupancy(7), 0);
        let s = m.stats();
        assert_eq!((s.executions, s.joined, s.max_occupancy), (1, 2, 3));
        // The key is free again: next arrival is a fresh leader.
        assert!(matches!(
            m.join_or_reserve(7, "body".into(), 3),
            JoinOutcome::Reserved(_)
        ));
    }

    #[test]
    fn guard_mismatch_is_a_collision_not_a_join() {
        let m: BatchMap<u32> = BatchMap::new();
        assert!(matches!(
            m.join_or_reserve(7, "body-a".into(), 0),
            JoinOutcome::Reserved(_)
        ));
        match m.join_or_reserve(7, "body-b".into(), 9) {
            JoinOutcome::Collision(w) => assert_eq!(w, 9),
            other => panic!("expected collision, got {other:?}"),
        }
        assert_eq!(m.stats().collisions, 1);
        // The colliding request never joined; only the leader is in flight.
        assert_eq!(m.close(7), Vec::<u32>::new());
    }

    #[test]
    fn cancel_returns_waiters_without_counting_execution() {
        let m: BatchMap<u32> = BatchMap::new();
        assert!(matches!(
            m.join_or_reserve(1, "x".into(), 0),
            JoinOutcome::Reserved(_)
        ));
        assert!(matches!(
            m.join_or_reserve(1, "x".into(), 5),
            JoinOutcome::Joined
        ));
        assert_eq!(m.cancel(1), vec![5]);
        assert_eq!(m.stats().executions, 0);
        assert!(matches!(
            m.join_or_reserve(1, "x".into(), 6),
            JoinOutcome::Reserved(_)
        ));
    }

    #[test]
    fn distinct_keys_batch_independently() {
        let m: BatchMap<u32> = BatchMap::new();
        assert!(matches!(
            m.join_or_reserve(1, "a".into(), 0),
            JoinOutcome::Reserved(_)
        ));
        assert!(matches!(
            m.join_or_reserve(2, "b".into(), 0),
            JoinOutcome::Reserved(_)
        ));
        assert!(matches!(
            m.join_or_reserve(2, "b".into(), 1),
            JoinOutcome::Joined
        ));
        assert_eq!(m.close(1).len(), 0);
        assert_eq!(m.close(2).len(), 1);
        assert_eq!(m.stats().max_occupancy, 2);
    }
}
