use crate::CommandStream;
use infs_faults::{Corrupt, Lru};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Memoization key of the concrete (level-A) map: the template's canonical
/// signature, the full slot table and the tile shape. The region *name* is
/// deliberately absent, so same-shape regions over different arrays share
/// entries; the tile participates because a different layout lowers
/// differently.
type MemoKey = (u64, Vec<i64>, Vec<u64>);

/// One cached stream plus the slot table it was built from and an integrity
/// checksum verified on every hit (see `DESIGN.md` §10).
#[derive(Debug)]
struct Entry {
    stream: Arc<CommandStream>,
    slots: Vec<i64>,
    checksum: u64,
}

impl Entry {
    fn intact(&self) -> bool {
        self.checksum == integrity_digest(&self.stream, &self.slots)
    }
}

/// One shape record (level B), keyed by `(signature, tile)`: the record that
/// a region of this shape has been lowered under this tile. It holds no
/// template — equal signatures distill equal templates, so a hit stamps the
/// one the caller just distilled.
#[derive(Debug)]
struct TplEntry {
    /// Command count of the stream the miss emitted (every instance of one
    /// shape emits the same command *classes*; the count feeds the offload
    /// decision's expected-patch-cost estimate).
    n_cmds: u64,
    checksum: u64,
}

/// How the cache served (or failed to serve) a request — the three-way
/// accounting the simulator and the run matrix report per region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JitOutcome {
    /// The exact stream (signature + slots + tile) was cached: no JIT work
    /// beyond the lookup.
    ConcreteHit,
    /// The shape (signature + tile) was recorded: the stream was stamped out
    /// by an O(commands) copy-and-patch.
    TemplateHit,
    /// Nothing reusable: full lowering ran (and seeded both cache levels).
    Miss,
}

impl JitOutcome {
    /// True for both hit kinds.
    pub fn is_hit(self) -> bool {
        !matches!(self, JitOutcome::Miss)
    }
}

/// FNV-1a over a sequence of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, word| {
        (h ^ word).wrapping_mul(0x100_0000_01b3)
    })
}

/// Constant-time integrity digest over a cached stream's scalar summary *and
/// its slot table* — a software stand-in for the per-line ECC a hardware
/// command cache would carry. Folding the slots means a tampered offset is
/// detected on the next hit even though the commands themselves are not
/// re-hashed (hashing every command on every hit would erase the memoization
/// win the cache exists for).
fn integrity_digest(stream: &CommandStream, slots: &[i64]) -> u64 {
    let s = &stream.stats;
    let summary = [
        s.n_cmds,
        s.intra_elems,
        s.inter_local_elems,
        s.inter_remote_bytes,
        s.syncs,
        s.final_reduce_partials,
        s.compute_cmds,
        s.cmds_from_template,
        stream.cmds.len() as u64,
    ];
    fnv(summary
        .into_iter()
        .chain(slots.iter().map(|&slot| slot as u64)))
}

/// Digest of a shape record (level B): signature, tile and command count.
fn shape_digest(signature: u64, tile: &[u64], n_cmds: u64) -> u64 {
    fnv([signature]
        .into_iter()
        .chain(tile.iter().copied())
        .chain([n_cmds]))
}

/// Memoization cache for JIT-lowered command streams (§4.2 "Reducing JIT
/// Overheads").
///
/// Re-executing the same tDFG with the same parameters — iterative stencils,
/// the per-`k` rounds of outer-product matmul — reuses the lowered commands;
/// the paper combines a small hardware command cache with software memoization
/// and credits these optimizations with a >1000× JIT-time reduction.
///
/// Each level is one [`Lru`] behind one mutex. A machine built alone gets a
/// private cache; the `infs-serve` server shares one bounded cache across
/// its few workers via `Arc<JitCache>`, and their critical sections are a
/// lookup or an insert. Hit/miss counters are lock-free atomics.
///
/// A cache can be **bounded** ([`JitCache::bounded`]): each level holds at
/// most `capacity` entries and evicts its least-recently-hit one on overflow.
/// Batch sweeps keep the default unbounded behaviour.
#[derive(Debug)]
pub struct JitCache {
    /// Concrete streams (level A).
    streams: Mutex<Lru<MemoKey, Entry>>,
    /// Shape records, keyed by `(signature, tile)` (level B).
    shapes: Mutex<Lru<(u64, Vec<u64>), TplEntry>>,
    hits: AtomicU64,
    template_hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    corruptions: AtomicU64,
}

impl Default for JitCache {
    fn default() -> Self {
        JitCache::bounded(usize::MAX)
    }
}

impl JitCache {
    /// An empty unbounded cache.
    pub fn new() -> Self {
        JitCache::default()
    }

    /// An empty **bounded** cache: at most `capacity` entries (at least one)
    /// at each level, least-recently-hit eviction across the whole level.
    pub fn bounded(capacity: usize) -> Self {
        JitCache {
            streams: Mutex::new(Lru::new(capacity)),
            shapes: Mutex::new(Lru::new(capacity)),
            hits: AtomicU64::new(0),
            template_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
        }
    }

    /// Entry cap of each level (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        Some(self.streams.lock().cap()).filter(|&cap| cap != usize::MAX)
    }

    /// Looks up a command stream, or stamps one out with `emit`.
    ///
    /// Three-way resolution, checked in order:
    ///
    /// 1. **Concrete hit** — `(signature, slots, tile)` holds a verified
    ///    stream: return it, zero JIT work.
    /// 2. **Template hit** — `(signature, tile)` holds a verified shape
    ///    record: `emit` (an O(commands) copy-and-patch), cache the stream
    ///    under its concrete key (checksum covering the stream's summary and
    ///    the slot table), and return it.
    /// 3. **Miss** — `emit` (a full lowering), and seed both the concrete
    ///    and the shape level.
    ///
    /// `emit` stamps the template the caller distilled for this request
    /// against its slot table ([`crate::instantiate`]), outside every lock;
    /// the two outcomes that run it differ in *modeled* cost only. Racing
    /// threads on one key may each do the work, but the first insert wins
    /// and all get usable streams. Corrupted entries at either level are
    /// dropped, counted, and treated as absent.
    ///
    /// # Errors
    ///
    /// Propagates whatever `emit` returns.
    pub fn get_or_instantiate<E>(
        &self,
        region: &str,
        signature: u64,
        slots: &[i64],
        tile: &[u64],
        emit: impl FnOnce() -> Result<CommandStream, E>,
    ) -> Result<(Arc<CommandStream>, JitOutcome), E> {
        let key = (signature, slots.to_vec(), tile.to_vec());
        if let Some(found) = self.lookup(&self.streams, &key, Entry::intact, |e| e.stream.clone()) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            infs_trace::counter!("jit.memo_hits", 1u64);
            return Ok((found, JitOutcome::ConcreteHit));
        }
        let shape_key = (signature, tile.to_vec());
        let intact = |e: &TplEntry| e.checksum == shape_digest(signature, tile, e.n_cmds);
        if self
            .lookup(&self.shapes, &shape_key, intact, |_| ())
            .is_some()
        {
            let t0 = std::time::Instant::now();
            let cs = {
                let _span = infs_trace::span!("runtime.jit_patch", region = region);
                Arc::new(emit()?)
            };
            infs_trace::counter!("jit.patch_ns", t0.elapsed().as_nanos() as u64);
            infs_trace::counter!("jit.template_hits", 1u64);
            self.template_hits.fetch_add(1, Ordering::Relaxed);
            let stored = self.insert_stream(key, cs);
            return Ok((stored, JitOutcome::TemplateHit));
        }
        infs_trace::counter!("jit.memo_misses", 1u64);
        let cs = {
            let _span = infs_trace::span!("runtime.jit_lower", region = region);
            Arc::new(emit()?)
        };
        let n_cmds = cs.cmds.len() as u64;
        let stored = self.insert_stream(key, cs);
        let record = TplEntry {
            checksum: shape_digest(signature, tile, n_cmds),
            n_cmds,
        };
        self.shapes.lock().insert(shape_key, record);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok((stored, JitOutcome::Miss))
    }

    /// What [`JitCache::get_or_instantiate`] *would* do for this request,
    /// without mutating counters, recency, or either cache level — the
    /// offload decision prices the JIT step with this before committing to
    /// in-memory execution. The count is the recorded command count on a
    /// template hit (what a patch would stamp) and 0 otherwise.
    pub fn classify(&self, signature: u64, slots: &[i64], tile: &[u64]) -> (JitOutcome, u64) {
        let key = (signature, slots.to_vec(), tile.to_vec());
        if self.streams.lock().peek(&key).is_some_and(Entry::intact) {
            return (JitOutcome::ConcreteHit, 0);
        }
        match self.shapes.lock().peek(&(signature, tile.to_vec())) {
            Some(e) if e.checksum == shape_digest(signature, tile, e.n_cmds) => {
                (JitOutcome::TemplateHit, e.n_cmds)
            }
            _ => (JitOutcome::Miss, 0),
        }
    }

    /// Verified lookup at either level. A corrupted entry is dropped, counted
    /// and read as a miss, so the caller re-materializes rather than replay
    /// poisoned commands.
    fn lookup<K: Hash + Eq + Clone, V, T>(
        &self,
        level: &Mutex<Lru<K, V>>,
        key: &K,
        intact: impl FnOnce(&V) -> bool,
        read: impl FnOnce(&mut V) -> T,
    ) -> Option<T> {
        let found = level.lock().get_verified(key, intact).map(|e| e.map(read));
        found.unwrap_or_else(|Corrupt| {
            self.corruptions.fetch_add(1, Ordering::Relaxed);
            infs_trace::counter!("jit.corruptions", 1u64);
            None
        })
    }

    /// Inserts a stream at the concrete level, evicting the least-recently-
    /// hit entry when a bounded cache is full. A racing thread may have
    /// inserted while the caller lowered; the first insert wins.
    fn insert_stream(&self, key: MemoKey, cs: Arc<CommandStream>) -> Arc<CommandStream> {
        let entry = Entry {
            checksum: integrity_digest(&cs, &key.1),
            slots: key.1.clone(),
            stream: cs,
        };
        let mut streams = self.streams.lock();
        let (stored, victim) = streams.insert(key, entry);
        if victim.is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        stored.stream.clone()
    }

    /// `(hits, misses)` so far. Hits count both concrete and template hits,
    /// so `hits + misses` equals the number of cache operations.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed) + self.template_hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Template hits so far (the subset of [`JitCache::stats`] hits served by
    /// copy-and-patch instead of an exact cached stream).
    pub fn template_hits(&self) -> u64 {
        self.template_hits.load(Ordering::Relaxed)
    }

    /// Shapes currently recorded (level B).
    pub fn template_count(&self) -> usize {
        self.shapes.lock().len()
    }

    /// Concrete streams evicted by the capacity bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Entries whose integrity checksum failed on lookup (each was dropped
    /// and re-lowered).
    pub fn corruptions(&self) -> u64 {
        self.corruptions.load(Ordering::Relaxed)
    }

    /// Fault injection: invalidate the stored checksum of every cached
    /// entry — concrete streams *and* shape records — so the next lookup of
    /// each key detects corruption, discards the entry and re-lowers from
    /// scratch. Returns how many entries were poisoned. (Contrast
    /// [`JitCache::tamper_slots`], which rots only the concrete level's
    /// patch tables and leaves the shape records able to heal the cache by
    /// re-patching.)
    pub fn corrupt_all(&self) -> usize {
        let mut n = 0;
        for entry in self.streams.lock().values_mut() {
            entry.checksum ^= 1 << 63;
            n += 1;
        }
        for entry in self.shapes.lock().values_mut() {
            entry.checksum ^= 1 << 63;
            n += 1;
        }
        n
    }

    /// Fault injection on the template path: flip the low bit of the first
    /// stored slot of every concrete entry with a non-empty slot table,
    /// *without* recomputing the checksum — exactly what a bit flip in the
    /// patch table of a hardware command cache would look like. The next hit
    /// on each tampered key must detect the digest mismatch, drop the entry
    /// and re-materialize. Returns how many entries were tampered.
    pub fn tamper_slots(&self) -> usize {
        let mut n = 0;
        for entry in self.streams.lock().values_mut() {
            if let Some(s) = entry.slots.first_mut() {
                *s ^= 1;
                n += 1;
            }
        }
        n
    }

    /// Cached streams (level A).
    pub fn len(&self) -> usize {
        self.streams.lock().len()
    }

    /// True when no stream is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all cached streams and shape records (e.g. on a context switch that
    /// reclaims LLC).
    pub fn clear(&self) {
        self.streams.lock().clear();
        self.shapes.lock().clear();
    }
}

// Compile-time audit: the cache is shared by reference across simulator
// threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<JitCache>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InfCommand, LoweredStats};

    /// An empty stream tagged `n` in its statistics, so a test can tell
    /// which emission produced a cached stream.
    fn dummy(n: u64) -> CommandStream {
        CommandStream {
            cmds: Vec::new(),
            stats: LoweredStats {
                intra_elems: n,
                ..LoweredStats::default()
            },
        }
    }

    /// One request for a region of signature `sig`, as `Machine` issues it:
    /// the emitter yields `dummy(n)`.
    fn request(
        cache: &JitCache,
        sig: u64,
        slots: &[i64],
        tile: &[u64],
        n: u64,
    ) -> (Arc<CommandStream>, JitOutcome) {
        cache
            .get_or_instantiate::<()>("r", sig, slots, tile, || Ok(dummy(n)))
            .unwrap()
    }

    /// [`request`] for a key that must already be cached.
    fn cached(cache: &JitCache, sig: u64, slots: &[i64], tile: &[u64]) -> Arc<CommandStream> {
        let (cs, out) = cache
            .get_or_instantiate::<()>("r", sig, slots, tile, || panic!("must not emit"))
            .unwrap();
        assert_eq!(out, JitOutcome::ConcreteHit);
        cs
    }

    #[test]
    fn hit_after_miss() {
        let cache = JitCache::new();
        let (a, out) = request(&cache, 1, &[1], &[16, 16], 7);
        assert_eq!(out, JitOutcome::Miss);
        let b = cached(&cache, 1, &[1], &[16, 16]);
        assert_eq!(a.stats, b.stats);
        assert_eq!(cache.stats(), (1, 1));
    }

    /// Signature, slot table and tile each separate concrete entries: a
    /// request differing in any one of them misses the concrete level.
    #[test]
    fn different_syms_or_tiles_miss() {
        let cache = JitCache::new();
        request(&cache, 1, &[1], &[16, 16], 1);
        let (_, out) = request(&cache, 1, &[2], &[16, 16], 2);
        assert_eq!(out, JitOutcome::TemplateHit, "same shape, other slots");
        let (_, out) = request(&cache, 1, &[1], &[4, 64], 3);
        assert_eq!(out, JitOutcome::Miss);
        let (_, out) = request(&cache, 2, &[1], &[16, 16], 4);
        assert_eq!(out, JitOutcome::Miss);
        assert_eq!(cache.stats(), (1, 3));
        assert_eq!(cache.len(), 4);
        cache.clear();
        assert!(cache.is_empty());
        let (_, out) = request(&cache, 1, &[1], &[16, 16], 5);
        assert_eq!(out, JitOutcome::Miss);
    }

    #[test]
    fn lowering_errors_propagate() {
        let cache = JitCache::new();
        let r = cache.get_or_instantiate::<&str>("r", 1, &[], &[], || Err("boom"));
        assert_eq!(r.unwrap_err(), "boom");
        assert_eq!(cache.stats(), (0, 0));
    }

    #[test]
    fn unbounded_cache_reports_no_capacity() {
        assert_eq!(JitCache::new().capacity(), None);
    }

    /// A bounded cache holds exactly its capacity, and a full one evicts
    /// the stream hit least recently across the whole cache.
    #[test]
    fn bounded_cache_holds_its_exact_capacity() {
        let cache = JitCache::bounded(10);
        assert_eq!(cache.capacity(), Some(10));
        for k in 0..10 {
            request(&cache, k, &[k as i64], &[16], k);
        }
        assert_eq!((cache.len(), cache.evictions()), (10, 0));
        // Re-hit every stream but the fourth, then push an eleventh through.
        for k in (0..10).filter(|&k| k != 3) {
            cached(&cache, k, &[k as i64], &[16]);
        }
        request(&cache, 10, &[10], &[16], 10);
        assert_eq!((cache.len(), cache.evictions()), (10, 1));
        for k in 0..=10 {
            let (outcome, _) = cache.classify(k, &[k as i64], &[16]);
            assert_eq!(outcome == JitOutcome::ConcreteHit, k != 3, "stream {k}");
        }
        assert_eq!(JitCache::bounded(0).capacity(), Some(1));
    }

    /// The cap holds under churn and the counters stay consistent with the
    /// operation count. Every key has its own signature, so a request the
    /// concrete level cannot serve is a lowering unless the (equally bounded)
    /// shape level still holds its record.
    #[test]
    fn capacity_holds_under_churn() {
        let cap = 8;
        let cache = JitCache::bounded(cap);
        let ops = 500u64;
        for i in 0..ops {
            let k = i % 64; // 64 distinct keys through an 8-entry cache
            request(&cache, k, &[k as i64], &[16], i);
            assert!(cache.len() <= cap, "len {} exceeds cap {cap}", cache.len());
            assert!(cache.template_count() <= cap);
        }
        let (hits, misses) = cache.stats();
        assert_eq!(hits + misses, ops);
        let inserted = misses + cache.template_hits();
        assert!(
            inserted > ops / 2,
            "64 keys churning 8 slots must mostly miss the concrete level"
        );
        assert_eq!(cache.evictions(), inserted - cache.len() as u64);
    }

    /// Least-recently-hit keys are the ones evicted: a key that is re-hit
    /// every round survives churn that evicts everything else.
    #[test]
    fn eviction_prefers_least_recently_hit() {
        let cache = JitCache::bounded(4);
        request(&cache, 0, &[], &[], 0);
        for i in 0..40 {
            // Refresh the hot key, then push a cold key through.
            cached(&cache, 0, &[], &[]);
            request(&cache, 1, &[i], &[], 1);
        }
        assert_eq!(cache.classify(0, &[], &[]), (JitOutcome::ConcreteHit, 0));
        assert!(cache.len() <= 4);
    }

    /// Concurrent churn through a bounded cache never exceeds the cap and the
    /// counters add up.
    #[test]
    fn bounded_concurrent_churn_is_consistent() {
        let cap = 16;
        let cache = JitCache::bounded(cap);
        let n_threads = 8;
        let ops_per_thread = 200u64;
        std::thread::scope(|s| {
            for t in 0..n_threads {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..ops_per_thread {
                        let k = (t as u64 * 31 + i) % 80;
                        request(cache, 1, &[k as i64], &[16], k);
                        assert!(cache.len() <= cap);
                    }
                });
            }
        });
        let (hits, misses) = cache.stats();
        assert_eq!(hits + misses, n_threads as u64 * ops_per_thread);
        assert!(cache.len() <= cap);
        // Two threads racing on the same key both count an insert but only
        // one lands, so evictions can only undershoot `inserts - len`.
        let inserted = misses + cache.template_hits();
        assert!(cache.evictions() <= inserted - cache.len() as u64);
        assert!(
            cache.evictions() > 0,
            "80 keys churning 16 slots must evict"
        );
    }

    /// Corrupted entries are detected on lookup, dropped, counted, and
    /// transparently re-materialized — the cache self-heals at both levels.
    #[test]
    fn corruption_is_detected_and_healed() {
        let cache = JitCache::new();
        request(&cache, 42, &[1], &[16], 7);
        request(&cache, 42, &[2], &[16], 9);
        // Two streams and the one shape they share.
        assert_eq!(cache.corrupt_all(), 3);
        // Stream and shape record both fail their checksums: a full
        // re-lowering, which re-records the shape.
        let (a, out) = request(&cache, 42, &[1], &[16], 7);
        assert_eq!(out, JitOutcome::Miss, "corrupted entry must not be served");
        assert_eq!(a.stats, dummy(7).stats);
        assert_eq!(cache.corruptions(), 2);
        let (_, out) = request(&cache, 42, &[2], &[16], 9);
        assert_eq!(
            out,
            JitOutcome::TemplateHit,
            "healed shape record serves it"
        );
        assert_eq!(cache.corruptions(), 3);
        // The healed entries verify clean again.
        cached(&cache, 42, &[1], &[16]);
        cached(&cache, 42, &[2], &[16]);
        assert_eq!(cache.corruptions(), 3);
        assert_eq!(cache.len(), 2);
    }

    /// Concurrent mixed lookup/insert traffic from many threads lands every
    /// stream exactly once and counts hits+misses == operations.
    #[test]
    fn concurrent_access_is_consistent() {
        let cache = JitCache::new();
        let n_threads = 8;
        let ops_per_thread = 200u64;
        std::thread::scope(|s| {
            for t in 0..n_threads {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..ops_per_thread {
                        // 50 distinct keys shared across threads.
                        let k = (t as u64 + i) % 50;
                        request(cache, 1, &[k as i64], &[16], k);
                    }
                });
            }
        });
        let (hits, misses) = cache.stats();
        assert_eq!(hits + misses, n_threads as u64 * ops_per_thread);
        assert_eq!(cache.len(), 50);
        // Every key was materialized at least once, by lowering or patching.
        assert!(misses + cache.template_hits() >= 50);
    }

    /// The three-way resolution: a cold request misses (and records the
    /// shape), a second request with *different* slots is a template hit,
    /// repeating either exact request is a concrete hit. Both emitting
    /// outcomes run the caller's own emitter.
    #[test]
    fn template_hit_between_miss_and_concrete_hit() {
        let cache = JitCache::new();
        let (_, out) = request(&cache, 42, &[0, 8], &[16], 1);
        assert_eq!(out, JitOutcome::Miss);
        assert_eq!(cache.template_count(), 1);
        // Same shape, shifted geometry: served by patching, not re-lowering.
        let (cs, out) = request(&cache, 42, &[4, 12], &[16], 2);
        assert_eq!(out, JitOutcome::TemplateHit);
        assert_eq!(
            cs.stats,
            dummy(2).stats,
            "a hit stamps what the caller emits"
        );
        assert_eq!(cache.template_hits(), 1);
        // Exact repeats of both requests: concrete hits, no JIT work at all.
        cached(&cache, 42, &[0, 8], &[16]);
        cached(&cache, 42, &[4, 12], &[16]);
        // hits (incl. template) + misses == operations.
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (3, 1));
    }

    /// The region name does not reach the shape key: same-shape regions
    /// over different arrays (ping-pong phases) share one record.
    #[test]
    fn template_sharing_ignores_region_names() {
        let cache = JitCache::new();
        cache
            .get_or_instantiate::<()>("phase_a", 7, &[0, 8], &[16], || Ok(dummy(1)))
            .unwrap();
        let (_, out) = cache
            .get_or_instantiate::<()>("phase_b", 7, &[1, 9], &[16], || Ok(dummy(2)))
            .unwrap();
        assert_eq!(
            out,
            JitOutcome::TemplateHit,
            "phase_b reuses phase_a's shape"
        );
        assert_eq!(cache.template_count(), 1);
    }

    /// A different tile shape is a different shape record: layout changes the
    /// emitted commands, so patching across tiles would be wrong.
    #[test]
    fn different_tiles_do_not_share_templates() {
        let cache = JitCache::new();
        request(&cache, 7, &[0, 8], &[16], 1);
        let (_, out) = request(&cache, 7, &[0, 8], &[4, 4], 2);
        assert_eq!(out, JitOutcome::Miss);
        assert_eq!(cache.template_count(), 2);
    }

    /// Satellite 3: the integrity digest folds the slot table, so a tampered
    /// slot — a bit flip in the patch table, not in the stream summary — is
    /// detected on the next hit, dropped, and re-materialized.
    #[test]
    fn tampered_slot_is_detected_on_hit() {
        let cache = JitCache::new();
        request(&cache, 42, &[3, 11], &[16], 5);
        assert_eq!(cache.tamper_slots(), 1);
        // The concrete entry must NOT be served; the (clean) shape level
        // transparently re-materializes the stream.
        let (cs, out) = request(&cache, 42, &[3, 11], &[16], 5);
        assert_eq!(out, JitOutcome::TemplateHit);
        assert_eq!(cs.stats, dummy(5).stats);
        assert_eq!(cache.corruptions(), 1);
        // The healed entry verifies clean again.
        cached(&cache, 42, &[3, 11], &[16]);
        assert_eq!(cache.corruptions(), 1);
    }

    /// `classify` anticipates the three outcomes without perturbing counters.
    #[test]
    fn classify_predicts_without_mutating() {
        let cache = JitCache::new();
        let miss = (JitOutcome::Miss, 0);
        assert_eq!(cache.classify(42, &[0, 8], &[16]), miss);
        request(&cache, 42, &[0, 8], &[16], 3);
        assert_eq!(
            cache.classify(42, &[0, 8], &[16]),
            (JitOutcome::ConcreteHit, 0)
        );
        assert_eq!(
            cache.classify(42, &[5, 13], &[16]),
            (JitOutcome::TemplateHit, 0)
        );
        assert_eq!(cache.classify(42, &[5, 13], &[4, 4]), miss);
        assert_eq!(cache.classify(99, &[0, 8], &[16]), miss);
        // Pure peek: the stats are untouched.
        assert_eq!(cache.stats(), (0, 1));
        assert_eq!(cache.template_hits(), 0);
    }

    /// The count `classify` reports for a shape sibling is the command
    /// count of the stream the miss emitted — what Eq 2 prices a patch at.
    #[test]
    fn classify_reports_the_recorded_command_count() {
        let cache = JitCache::new();
        let five = CommandStream {
            cmds: vec![InfCommand::Sync; 5],
            stats: LoweredStats {
                n_cmds: 5,
                syncs: 5,
                ..LoweredStats::default()
            },
        };
        let (_, out) = cache
            .get_or_instantiate::<()>("r", 42, &[0, 8], &[16], || Ok(five))
            .unwrap();
        assert_eq!(out, JitOutcome::Miss);
        assert_eq!(
            cache.classify(42, &[5, 13], &[16]),
            (JitOutcome::TemplateHit, 5)
        );
        // A poisoned record is a miss again, not a patch of a stale count.
        cache.corrupt_all();
        assert_eq!(cache.classify(42, &[5, 13], &[16]), (JitOutcome::Miss, 0));
    }

    /// Emission errors on either path — a miss or a template hit — propagate
    /// without seeding either cache level.
    #[test]
    fn template_path_errors_propagate() {
        let cache = JitCache::new();
        let r = cache.get_or_instantiate::<&str>("r", 1, &[], &[], || Err("cold boom"));
        assert_eq!(r.unwrap_err(), "cold boom");
        assert_eq!(cache.template_count(), 0);
        assert!(cache.is_empty());
        cache
            .get_or_instantiate::<&str>("r", 1, &[], &[], || Ok(dummy(1)))
            .unwrap();
        let r = cache.get_or_instantiate::<&str>("r", 1, &[1], &[], || Err("patch boom"));
        assert_eq!(r.unwrap_err(), "patch boom");
        assert_eq!(cache.len(), 1, "failed patch must not insert");
    }
}
