//! The content-addressed artifact cache: compiled fat binaries keyed by a
//! stable 64-bit content hash, shared by every tenant. A kernel compiled once
//! (for a given symbol binding × geometry set × optimizer setting) is an
//! artifact-cache hit for every subsequent identical request, from any tenant.

use infs_faults::{Corrupt, Lru};
use infs_isa::FatBinary;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Entry {
    binary: Arc<FatBinary>,
    /// FNV-1a content hash recorded at insert time and re-verified on every
    /// load — a corrupted entry must read as a miss, never as a binary
    /// (`DESIGN.md` §10). `None` when the binary was unhashable at insert
    /// (such an entry never verifies and is dropped on first load).
    checksum: Option<u64>,
}

/// A bounded cache of compiled artifacts. Eviction drops the
/// least-recently-hit entry — the same [`Lru`] as the bounded
/// [`infs_runtime::JitCache`], one level up the stack (binaries instead of
/// command streams).
pub struct ArtifactCache {
    entries: Mutex<Lru<u64, Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    corruptions: AtomicU64,
}

impl ArtifactCache {
    /// A cache holding at most `capacity` artifacts (at least one).
    pub fn new(capacity: usize) -> Self {
        ArtifactCache {
            entries: Mutex::new(Lru::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
        }
    }

    /// The entry cap.
    pub fn capacity(&self) -> usize {
        self.entries.lock().cap()
    }

    /// Number of cached artifacts.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up an artifact by id, counting a hit or miss.
    ///
    /// The load path re-hashes the cached binary and compares it against
    /// the checksum recorded at insert time. A mismatch means the cached
    /// bytes rotted (or a fault plan corrupted them): the entry is evicted
    /// and the lookup reads as a **miss**, so the caller recompiles instead
    /// of serving a poisoned binary.
    pub fn get(&self, id: u64) -> Option<Arc<FatBinary>> {
        let intact = |e: &Entry| e.checksum.is_some() && e.binary.content_hash().ok() == e.checksum;
        let found = self
            .entries
            .lock()
            .get_verified(&id, intact)
            .map(|e| e.map(|e| e.binary.clone()));
        match found {
            Ok(Some(binary)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(binary)
            }
            Ok(None) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(Corrupt) => {
                self.corruptions.fetch_add(1, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                infs_trace::counter!("serve.artifact_corruptions", 1u64);
                None
            }
        }
    }

    /// Inserts an artifact, evicting the least-recently-hit entry when full.
    /// Returns the binary (already cached one if a concurrent insert won).
    pub fn insert(&self, id: u64, binary: Arc<FatBinary>) -> Arc<FatBinary> {
        let entry = Entry {
            checksum: binary.content_hash().ok(),
            binary,
        };
        let mut entries = self.entries.lock();
        let (stored, victim) = entries.insert(id, entry);
        if victim.is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        stored.binary.clone()
    }

    /// Fault injection: flip a bit of the stored checksum for `id`, so the
    /// next load detects corruption and treats it as a miss. Returns whether
    /// the id was cached.
    pub fn corrupt(&self, id: u64) -> bool {
        match self.entries.lock().peek_mut(&id) {
            Some(e) => {
                e.checksum = e.checksum.map(|c| c ^ 1 << 63).or(Some(0));
                true
            }
            None => false,
        }
    }

    /// Entries whose checksum failed verification on load (each was evicted
    /// and the lookup counted as a miss).
    pub fn corruptions(&self) -> u64 {
        self.corruptions.load(Ordering::Relaxed)
    }

    /// Lifetime (hits, misses, evictions).
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }
}

/// A bounded cache of compiled pipelines, keyed by the graph's content key
/// ([`infs_pipeline::PipelineGraph::content_key`]). The pipeline-level
/// analogue of [`ArtifactCache`]: a whole multi-kernel graph — every stage's
/// compiled region and the residency plan — is one artifact, so a repeated
/// graph skips compilation *and* planning.
///
/// No checksum layer: a [`CompiledPipeline`](infs_pipeline::CompiledPipeline)
/// has no canonical byte encoding to re-hash (unlike a fat binary), so the
/// corruption drill stays at the fat-binary and JIT caches below it.
pub struct PipelineCache {
    entries: Mutex<Lru<u64, Arc<infs_pipeline::CompiledPipeline>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PipelineCache {
    /// A cache holding at most `capacity` compiled graphs (at least one).
    pub fn new(capacity: usize) -> Self {
        PipelineCache {
            entries: Mutex::new(Lru::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up a compiled graph, counting a hit or miss.
    pub fn get(&self, key: u64) -> Option<Arc<infs_pipeline::CompiledPipeline>> {
        let found = self.entries.lock().get(&key).cloned();
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Inserts a compiled graph, evicting the least-recently-hit entry when
    /// full. Returns the cached value (an earlier concurrent insert wins).
    pub fn insert(
        &self,
        key: u64,
        compiled: Arc<infs_pipeline::CompiledPipeline>,
    ) -> Arc<infs_pipeline::CompiledPipeline> {
        self.entries.lock().insert(key, compiled).0.clone()
    }

    /// Lifetime (hits, misses).
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// Renders an artifact id for the wire (16 hex digits).
pub fn format_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses a wire artifact id.
pub fn parse_id(s: &str) -> Option<u64> {
    if s.len() == 16 {
        u64::from_str_radix(s, 16).ok()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bin() -> Arc<FatBinary> {
        Arc::new(FatBinary::new())
    }

    #[test]
    fn capacity_holds_and_evicts_least_recently_hit() {
        let cache = ArtifactCache::new(2);
        cache.insert(1, bin());
        cache.insert(2, bin());
        assert!(cache.get(1).is_some()); // 1 is now the most recently hit
        cache.insert(3, bin()); // evicts 2
        assert_eq!(cache.len(), 2);
        let (hits, misses, evictions) = cache.stats();
        assert_eq!((hits, misses, evictions), (1, 0, 1));
        assert!(cache.get(1).is_some());
        assert!(cache.get(2).is_none());
        assert!(cache.get(3).is_some());
    }

    #[test]
    fn insert_is_idempotent_per_id() {
        let cache = ArtifactCache::new(4);
        let first = cache.insert(7, bin());
        let second = cache.insert(7, bin());
        assert!(Arc::ptr_eq(&first, &second), "first insert wins");
        assert_eq!(cache.len(), 1);
    }

    /// The bugfix this cache needed: a corrupted entry must read as a miss
    /// (and get evicted), never as a usable binary.
    #[test]
    fn corrupted_entry_reads_as_a_miss_and_is_evicted() {
        let cache = ArtifactCache::new(4);
        cache.insert(1, bin());
        cache.insert(2, bin());
        assert!(cache.get(1).is_some());
        assert!(cache.corrupt(1));
        assert!(!cache.corrupt(99), "unknown id is not corruptible");

        // The corrupted entry verifies dirty: miss + eviction, not a hit.
        assert!(cache.get(1).is_none());
        assert_eq!(cache.corruptions(), 1);
        assert_eq!(cache.len(), 1, "corrupted entry must be evicted");
        let (hits, misses, evictions) = cache.stats();
        assert_eq!((hits, misses, evictions), (1, 1, 1));

        // The untouched entry still verifies clean.
        assert!(cache.get(2).is_some());
        // Re-inserting the corrupted id heals it.
        cache.insert(1, bin());
        assert!(cache.get(1).is_some());
        assert_eq!(cache.corruptions(), 1);
    }

    #[test]
    fn wire_ids_round_trip() {
        for id in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_id(&format_id(id)), Some(id));
        }
        assert_eq!(parse_id("xyz"), None);
        assert_eq!(parse_id(""), None);
        assert_eq!(parse_id("00000000000000001"), None, "length must be 16");
    }
}
