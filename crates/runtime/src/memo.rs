use crate::{CommandStream, CommandTemplate};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Memoization key of the concrete (level-A) map: the template's canonical
/// signature, the full slot table and the tile shape. The region *name* is
/// deliberately absent, so same-shape regions over different arrays share
/// entries; the tile participates because a different layout lowers
/// differently.
type MemoKey = (u64, Vec<i64>, Vec<u64>);

/// One cached stream plus the slot table it was built from, the logical time
/// of its last hit (for eviction) and an integrity checksum verified on every
/// hit (see `DESIGN.md` §10).
#[derive(Debug)]
struct Entry {
    stream: Arc<CommandStream>,
    slots: Vec<i64>,
    last_hit: u64,
    checksum: u64,
}

/// One cached relocatable template (level B), keyed by `(signature, tile)`.
#[derive(Debug)]
struct TplEntry {
    template: Arc<CommandTemplate>,
    /// Command count of the stream it was distilled from (all instantiations
    /// of one template emit the same command *classes*; the count feeds the
    /// offload decision's expected-patch-cost estimate).
    n_cmds: u64,
    last_hit: u64,
    checksum: u64,
}

/// How the cache served (or failed to serve) a request — the three-way
/// accounting the simulator and the run matrix report per region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JitOutcome {
    /// The exact stream (signature + slots + tile) was cached: no JIT work
    /// beyond the lookup.
    ConcreteHit,
    /// A relocatable template was cached for the signature: the stream was
    /// stamped out by an O(commands) copy-and-patch.
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

/// What a non-mutating lookup ([`JitCache::classify`]) anticipates for a
/// request — the offload decision model uses this to price the JIT step
/// before committing to in-memory execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JitClass {
    /// The exact stream is cached.
    Concrete,
    /// A template is cached; `n_cmds` is the command count of the stream it
    /// was distilled from (what a patch would cost).
    Template {
        /// Commands the cached template stamps out.
        n_cmds: u64,
    },
    /// Full lowering would run.
    Miss,
}

/// Constant-time integrity digest over a cached stream's scalar summary *and
/// its slot table* — a software stand-in for the per-line ECC a hardware
/// command cache would carry. Folding the slots means a tampered offset is
/// detected on the next hit even though the commands themselves are not
/// re-hashed (hashing every command on every hit would erase the memoization
/// win the cache exists for).
fn integrity_digest(stream: &CommandStream, slots: &[i64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in [stream.jit_cycles, stream.cmds.len() as u64]
        .into_iter()
        .chain(slots.iter().map(|&s| s as u64))
    {
        h ^= word;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Digest of a cached template (level B): signature, slot arity, op and
/// command counts.
fn template_digest(t: &CommandTemplate, n_cmds: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in [t.signature, t.n_slots as u64, t.ops.len() as u64, n_cmds] {
        h ^= word;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One lock stripe of the cache.
type Shard = Mutex<HashMap<MemoKey, Entry>>;

/// Memoization cache for JIT-lowered command streams (§4.2 "Reducing JIT
/// Overheads").
///
/// Re-executing the same tDFG with the same parameters — iterative stencils,
/// the per-`k` rounds of outer-product matmul — reuses the lowered commands;
/// the paper combines a small hardware command cache with software memoization
/// and credits these optimizations with a >1000× JIT-time reduction.
///
/// The cache is lock-striped: keys hash to one of a power-of-two number of
/// independently locked shards, so concurrent sessions (the parallel run
/// matrix runs one simulation per worker thread) contend only when they touch
/// the same shard. Hit/miss counters are lock-free atomics.
///
/// A cache can be **bounded** ([`JitCache::bounded`]): each shard holds at
/// most `capacity / shards` entries and evicts its least-recently-hit key on
/// overflow. A long-lived process (the `infs-serve` server) shares one bounded
/// cache across all sessions via `Arc<JitCache>`; batch sweeps keep the
/// default unbounded behaviour.
#[derive(Debug)]
pub struct JitCache {
    shards: Box<[Shard]>,
    /// Relocatable templates, keyed by `(signature, tile)` (level B). One
    /// map, not striped: there are as many templates as region *shapes*, a
    /// handful, and the critical sections are pointer clones.
    templates: Mutex<HashMap<(u64, Vec<u64>), TplEntry>>,
    /// Per-shard entry cap (`u64::MAX` = unbounded).
    per_shard_cap: usize,
    /// Logical clock for least-recently-hit eviction; ticks on every hit and
    /// insert.
    clock: AtomicU64,
    hits: AtomicU64,
    template_hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    corruptions: AtomicU64,
}

/// Default shard count; enough stripes that a handful of worker threads
/// rarely collide, small enough to stay cache-friendly.
const DEFAULT_SHARDS: usize = 16;

impl Default for JitCache {
    fn default() -> Self {
        JitCache::build(DEFAULT_SHARDS, None)
    }
}

impl JitCache {
    /// An empty unbounded cache.
    pub fn new() -> Self {
        JitCache::default()
    }

    /// An empty **bounded** cache: at most `capacity` entries total (rounded
    /// down to a multiple of the shard count, minimum one entry per shard),
    /// with per-shard least-recently-hit eviction. The shard count shrinks so
    /// it never exceeds `capacity` — a cap of 4 gives 4 single-entry shards,
    /// not 16 shards of which 12 can never fill.
    pub fn bounded(capacity: usize) -> Self {
        JitCache::build(DEFAULT_SHARDS, Some(capacity))
    }

    /// `shards` lock stripes (rounded up to a power of two; `1` degenerates
    /// to a single-map cache, which the equivalence tests use as the
    /// reference), optionally bounded to `capacity` entries.
    fn build(shards: usize, capacity: Option<usize>) -> Self {
        let mut n = shards.max(1).next_power_of_two();
        if let Some(cap) = capacity {
            while n > 1 && n > cap {
                n /= 2;
            }
        }
        JitCache {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            templates: Mutex::new(HashMap::new()),
            per_shard_cap: capacity.map_or(usize::MAX, |cap| (cap / n).max(1)),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            template_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
        }
    }

    /// Total entry cap (`None` = unbounded). For a bounded cache this is the
    /// *effective* cap — the requested capacity rounded down to a multiple of
    /// the shard count.
    pub fn capacity(&self) -> Option<usize> {
        if self.per_shard_cap == usize::MAX {
            None
        } else {
            Some(self.per_shard_cap * self.shards.len())
        }
    }

    fn shard_of(&self, key: &MemoKey) -> &Shard {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        // Shard count is a power of two, so the mask is a uniform selector.
        &self.shards[(h.finish() as usize) & (self.shards.len() - 1)]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up, patches, or lowers a command stream.
    ///
    /// Three-way resolution, checked in order:
    ///
    /// 1. **Concrete hit** — `(signature, slots, tile)` holds a verified
    ///    stream: return it, zero JIT work.
    /// 2. **Template hit** — `(signature, tile)` holds a verified relocatable
    ///    template: run `instantiate` against the *cached* template (an
    ///    O(commands) copy-and-patch), cache the patched stream under its
    ///    concrete key (checksum covering the patched output and the slot
    ///    table), and return it.
    /// 3. **Miss** — run `lower`, seed both the concrete level and the
    ///    template level (`template` is the freshly distilled skeleton).
    ///
    /// Both closures run outside every lock. Racing threads on one key may
    /// each do the work, but the first insert wins and all get usable
    /// streams. Corrupted entries at either level are dropped, counted, and
    /// treated as absent.
    ///
    /// # Errors
    ///
    /// Propagates whatever `instantiate` or `lower` returns.
    pub fn get_or_instantiate<E>(
        &self,
        region: &str,
        template: &CommandTemplate,
        slots: &[i64],
        tile: &[u64],
        instantiate: impl FnOnce(&CommandTemplate) -> Result<CommandStream, E>,
        lower: impl FnOnce() -> Result<CommandStream, E>,
    ) -> Result<(Arc<CommandStream>, JitOutcome), E> {
        let key = (template.signature, slots.to_vec(), tile.to_vec());
        if let Some(found) = self.lookup_verified(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            infs_trace::counter!("jit.memo_hits", 1u64);
            return Ok((found, JitOutcome::ConcreteHit));
        }
        let tpl_key = (template.signature, tile.to_vec());
        let cached_tpl = {
            let mut map = self.templates.lock();
            match map.get_mut(&tpl_key) {
                Some(e) if e.checksum == template_digest(&e.template, e.n_cmds) => {
                    e.last_hit = self.tick();
                    Some(e.template.clone())
                }
                Some(_) => {
                    map.remove(&tpl_key);
                    self.corruptions.fetch_add(1, Ordering::Relaxed);
                    infs_trace::counter!("jit.corruptions", 1u64);
                    None
                }
                None => None,
            }
        };
        if let Some(tpl) = cached_tpl {
            let t0 = std::time::Instant::now();
            let cs = {
                let _span = infs_trace::span!("runtime.jit_patch", region = region);
                Arc::new(instantiate(&tpl)?)
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
            Arc::new(lower()?)
        };
        let n_cmds = cs.cmds.len() as u64;
        let stored = self.insert_stream(key, cs);
        {
            let mut map = self.templates.lock();
            let cap = self.capacity().unwrap_or(usize::MAX);
            if !map.contains_key(&tpl_key) && map.len() >= cap {
                if let Some(victim) = map
                    .iter()
                    .min_by_key(|(_, e)| e.last_hit)
                    .map(|(k, _)| k.clone())
                {
                    map.remove(&victim);
                }
            }
            let stamp = self.tick();
            map.entry(tpl_key).or_insert_with(|| {
                let template = Arc::new(template.clone());
                TplEntry {
                    checksum: template_digest(&template, n_cmds),
                    template,
                    n_cmds,
                    last_hit: stamp,
                }
            });
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok((stored, JitOutcome::Miss))
    }

    /// What [`JitCache::get_or_instantiate`] *would* do for this request,
    /// without mutating counters, recency, or either cache level — the
    /// offload decision prices the JIT step with this before committing to
    /// in-memory execution.
    pub fn classify(&self, signature: u64, slots: &[i64], tile: &[u64]) -> JitClass {
        let key = (signature, slots.to_vec(), tile.to_vec());
        {
            let map = self.shard_of(&key).lock();
            if let Some(e) = map.get(&key) {
                if e.checksum == integrity_digest(&e.stream, &e.slots) {
                    return JitClass::Concrete;
                }
            }
        }
        let map = self.templates.lock();
        if let Some(e) = map.get(&(signature, tile.to_vec())) {
            if e.checksum == template_digest(&e.template, e.n_cmds) {
                return JitClass::Template { n_cmds: e.n_cmds };
            }
        }
        JitClass::Miss
    }

    /// Verified lookup at the concrete level: returns the stream on a clean
    /// checksum; drops (and counts) a corrupted entry.
    fn lookup_verified(&self, key: &MemoKey) -> Option<Arc<CommandStream>> {
        let mut map = self.shard_of(key).lock();
        if let Some(entry) = map.get_mut(key) {
            if entry.checksum == integrity_digest(&entry.stream, &entry.slots) {
                entry.last_hit = self.tick();
                return Some(entry.stream.clone());
            }
            // Checksum mismatch: a corrupted entry is a miss — drop it and
            // re-lower rather than replay poisoned commands.
            map.remove(key);
            self.corruptions.fetch_add(1, Ordering::Relaxed);
            infs_trace::counter!("jit.corruptions", 1u64);
        }
        None
    }

    /// Inserts a stream at the concrete level, evicting the shard's
    /// least-recently-hit entry when a bounded shard is full. A racing
    /// thread may have inserted while the caller lowered; the first insert
    /// wins and only a genuinely new entry counts against the cap.
    fn insert_stream(&self, key: MemoKey, cs: Arc<CommandStream>) -> Arc<CommandStream> {
        let mut map = self.shard_of(&key).lock();
        if !map.contains_key(&key) && map.len() >= self.per_shard_cap {
            if let Some(victim) = map
                .iter()
                .min_by_key(|(_, e)| e.last_hit)
                .map(|(k, _)| k.clone())
            {
                map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let stamp = self.tick();
        let slots = key.1.clone();
        map.entry(key)
            .or_insert_with(|| Entry {
                checksum: integrity_digest(&cs, &slots),
                stream: cs.clone(),
                slots,
                last_hit: stamp,
            })
            .stream
            .clone()
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

    /// Relocatable templates currently cached (level B).
    pub fn template_count(&self) -> usize {
        self.templates.lock().len()
    }

    /// Entries evicted by the capacity bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Entries whose integrity checksum failed on lookup (each was dropped
    /// and re-lowered).
    pub fn corruptions(&self) -> u64 {
        self.corruptions.load(Ordering::Relaxed)
    }

    /// Fault injection: invalidate the stored checksum of every cached
    /// entry — concrete streams *and* relocatable templates — so the next
    /// lookup of each key detects corruption, discards the entry and
    /// re-lowers from scratch. Returns how many entries were poisoned.
    /// (Contrast [`JitCache::tamper_slots`], which rots only the concrete
    /// level's patch tables and leaves templates able to heal the cache by
    /// re-patching.)
    pub fn corrupt_all(&self) -> usize {
        let mut n = 0;
        for shard in self.shards.iter() {
            for entry in shard.lock().values_mut() {
                entry.checksum ^= 1 << 63;
                n += 1;
            }
        }
        for entry in self.templates.lock().values_mut() {
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
        for shard in self.shards.iter() {
            for entry in shard.lock().values_mut() {
                if let Some(s) = entry.slots.first_mut() {
                    *s ^= 1;
                    n += 1;
                }
            }
        }
        n
    }

    /// Total cached streams across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when no stream is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all cached streams and templates (e.g. on a context switch that
    /// reclaims LLC).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.lock().clear();
        }
        self.templates.lock().clear();
    }
}

// Compile-time audit: the cache is shared by reference across simulator
// threads; striping must not cost the auto traits.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<JitCache>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LoweredStats;

    fn dummy(n: u64) -> CommandStream {
        CommandStream {
            cmds: Vec::new(),
            jit_cycles: n,
            stats: LoweredStats::default(),
        }
    }

    fn tpl(signature: u64) -> CommandTemplate {
        CommandTemplate {
            ops: Vec::new(),
            n_slots: 2,
            ndim: 1,
            elem_bytes: 4,
            signature,
        }
    }

    /// One request for a region of signature `sig`, as `Machine` issues it:
    /// whichever of patching and lowering the cache asks for yields
    /// `dummy(n)`.
    fn request(
        cache: &JitCache,
        sig: u64,
        slots: &[i64],
        tile: &[u64],
        n: u64,
    ) -> (Arc<CommandStream>, JitOutcome) {
        cache
            .get_or_instantiate::<()>(
                "r",
                &tpl(sig),
                slots,
                tile,
                |_| Ok(dummy(n)),
                || Ok(dummy(n)),
            )
            .unwrap()
    }

    /// [`request`] for a key that must already be cached.
    fn cached(cache: &JitCache, sig: u64, slots: &[i64], tile: &[u64]) -> Arc<CommandStream> {
        let (cs, out) = cache
            .get_or_instantiate::<()>(
                "r",
                &tpl(sig),
                slots,
                tile,
                |_| panic!("must not patch"),
                || panic!("must not lower"),
            )
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
        assert_eq!(a.jit_cycles, b.jit_cycles);
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
        let r = cache.get_or_instantiate::<&str>(
            "r",
            &tpl(1),
            &[],
            &[],
            |_| unreachable!(),
            || Err("boom"),
        );
        assert_eq!(r.unwrap_err(), "boom");
        assert_eq!(cache.stats(), (0, 0));
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(JitCache::build(1, None).shards.len(), 1);
        assert_eq!(JitCache::build(5, None).shards.len(), 8);
        assert_eq!(JitCache::new().shards.len(), DEFAULT_SHARDS);
    }

    #[test]
    fn unbounded_cache_reports_no_capacity() {
        assert_eq!(JitCache::new().capacity(), None);
        assert_eq!(JitCache::build(4, None).capacity(), None);
    }

    #[test]
    fn bounded_capacity_shrinks_shards_not_below_one_entry_each() {
        // Cap smaller than the default shard count: shards shrink to the cap.
        let small = JitCache::bounded(4);
        assert_eq!(small.shards.len(), 4);
        assert_eq!(small.capacity(), Some(4));
        // Cap rounds down to a multiple of the shard count.
        let c = JitCache::build(4, Some(10));
        assert_eq!(c.shards.len(), 4);
        assert_eq!(c.capacity(), Some(8));
        // Degenerate cap of one entry.
        let one = JitCache::bounded(1);
        assert_eq!(one.shards.len(), 1);
        assert_eq!(one.capacity(), Some(1));
    }

    /// The cap holds under churn and the counters stay consistent with the
    /// operation count. Every key has its own signature, so a request the
    /// concrete level cannot serve is a lowering unless the (equally bounded)
    /// template level still holds its skeleton.
    #[test]
    fn capacity_holds_under_churn() {
        let cap = 8;
        let cache = JitCache::build(4, Some(cap));
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
    /// every round survives churn that evicts everything else in its shard.
    #[test]
    fn eviction_prefers_least_recently_hit() {
        let cache = JitCache::build(1, Some(4));
        request(&cache, 0, &[], &[], 0);
        for i in 0..40 {
            // Refresh the hot key, then push a cold key through.
            cached(&cache, 0, &[], &[]);
            request(&cache, 1, &[i], &[], 1);
        }
        assert_eq!(cache.classify(0, &[], &[]), JitClass::Concrete);
        assert!(cache.len() <= 4);
    }

    /// Concurrent churn through a bounded cache never exceeds the cap and the
    /// counters add up.
    #[test]
    fn bounded_concurrent_churn_is_consistent() {
        let cap = 16;
        let cache = JitCache::build(4, Some(cap));
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
        // Two streams and the one template they share.
        assert_eq!(cache.corrupt_all(), 3);
        // Stream and template both fail their checksums: a full re-lowering,
        // which re-seeds the template.
        let (a, out) = request(&cache, 42, &[1], &[16], 7);
        assert_eq!(out, JitOutcome::Miss, "corrupted entry must not be served");
        assert_eq!(a.jit_cycles, 7);
        assert_eq!(cache.corruptions(), 2);
        let (_, out) = request(&cache, 42, &[2], &[16], 9);
        assert_eq!(out, JitOutcome::TemplateHit, "healed template serves it");
        assert_eq!(cache.corruptions(), 3);
        // The healed entries verify clean again.
        cached(&cache, 42, &[1], &[16]);
        cached(&cache, 42, &[2], &[16]);
        assert_eq!(cache.corruptions(), 3);
        assert_eq!(cache.len(), 2);
    }

    /// Sharded cache behaves identically to a single-map (1-shard) cache on
    /// the same key sequence: same outcomes, counters, and entry count.
    #[test]
    fn sharded_matches_single_map_reference() {
        let sharded = JitCache::build(16, None);
        let reference = JitCache::build(1, None);
        let keys: Vec<(u64, Vec<i64>, Vec<u64>)> = (0..64)
            .map(|i| {
                (
                    i as u64 % 7,
                    vec![i % 5, i / 8],
                    vec![16, (i % 3 + 1) as u64],
                )
            })
            .collect();
        for (sig, slots, tile) in keys.iter().chain(keys.iter()) {
            let (_, o1) = request(&sharded, *sig, slots, tile, 1);
            let (_, o2) = request(&reference, *sig, slots, tile, 1);
            assert_eq!(o1, o2);
        }
        assert_eq!(sharded.stats(), reference.stats());
        assert_eq!(sharded.template_hits(), reference.template_hits());
        assert_eq!(sharded.len(), reference.len());
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

    /// The three-way resolution: a cold request misses (and seeds the
    /// template), a second request with *different* slots is a template hit,
    /// repeating either exact request is a concrete hit.
    #[test]
    fn template_hit_between_miss_and_concrete_hit() {
        let cache = JitCache::new();
        let t = tpl(42);
        let (_, out) = cache
            .get_or_instantiate::<()>(
                "r",
                &t,
                &[0, 8],
                &[16],
                |_| panic!("no template cached yet"),
                || Ok(dummy(1)),
            )
            .unwrap();
        assert_eq!(out, JitOutcome::Miss);
        assert_eq!(cache.template_count(), 1);
        // Same shape, shifted geometry: served by patching, not re-lowering.
        let (_, out) = cache
            .get_or_instantiate::<()>(
                "r",
                &t,
                &[4, 12],
                &[16],
                |cached| {
                    assert_eq!(cached.signature, 42);
                    Ok(dummy(2))
                },
                || panic!("template must serve this"),
            )
            .unwrap();
        assert_eq!(out, JitOutcome::TemplateHit);
        assert_eq!(cache.template_hits(), 1);
        // Exact repeats of both requests: concrete hits, no JIT work at all.
        for slots in [[0i64, 8], [4, 12]] {
            let (_, out) = cache
                .get_or_instantiate::<()>(
                    "r",
                    &t,
                    &slots,
                    &[16],
                    |_| panic!("must not patch"),
                    || panic!("must not lower"),
                )
                .unwrap();
            assert_eq!(out, JitOutcome::ConcreteHit);
        }
        // hits (incl. template) + misses == operations.
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (3, 1));
    }

    /// The region name does not reach the template key: same-shape regions
    /// over different arrays (ping-pong phases) share one template.
    #[test]
    fn template_sharing_ignores_region_names() {
        let cache = JitCache::new();
        let t = tpl(7);
        cache
            .get_or_instantiate::<()>(
                "phase_a",
                &t,
                &[0, 8],
                &[16],
                |_| unreachable!(),
                || Ok(dummy(1)),
            )
            .unwrap();
        let (_, out) = cache
            .get_or_instantiate::<()>(
                "phase_b",
                &t,
                &[1, 9],
                &[16],
                |_| Ok(dummy(2)),
                || panic!("phase_b must reuse phase_a's template"),
            )
            .unwrap();
        assert_eq!(out, JitOutcome::TemplateHit);
        assert_eq!(cache.template_count(), 1);
    }

    /// A different tile shape is a different template: layout changes the
    /// emitted commands, so patching across tiles would be wrong.
    #[test]
    fn different_tiles_do_not_share_templates() {
        let cache = JitCache::new();
        let t = tpl(7);
        cache
            .get_or_instantiate::<()>("r", &t, &[0, 8], &[16], |_| unreachable!(), || Ok(dummy(1)))
            .unwrap();
        let (_, out) = cache
            .get_or_instantiate::<()>(
                "r",
                &t,
                &[0, 8],
                &[4, 4],
                |_| unreachable!(),
                || Ok(dummy(2)),
            )
            .unwrap();
        assert_eq!(out, JitOutcome::Miss);
        assert_eq!(cache.template_count(), 2);
    }

    /// Satellite 3: the integrity digest folds the slot table, so a tampered
    /// slot — a bit flip in the patch table, not in the stream summary — is
    /// detected on the next hit, dropped, and re-materialized.
    #[test]
    fn tampered_slot_is_detected_on_hit() {
        let cache = JitCache::new();
        let t = tpl(42);
        cache
            .get_or_instantiate::<()>(
                "r",
                &t,
                &[3, 11],
                &[16],
                |_| unreachable!(),
                || Ok(dummy(5)),
            )
            .unwrap();
        assert_eq!(cache.tamper_slots(), 1);
        // The concrete entry must NOT be served; the (clean) template level
        // transparently re-materializes the stream.
        let (cs, out) = cache
            .get_or_instantiate::<()>(
                "r",
                &t,
                &[3, 11],
                &[16],
                |_| Ok(dummy(5)),
                || panic!("template level is clean"),
            )
            .unwrap();
        assert_eq!(out, JitOutcome::TemplateHit);
        assert_eq!(cs.jit_cycles, 5);
        assert_eq!(cache.corruptions(), 1);
        // The healed entry verifies clean again.
        let (_, out) = cache
            .get_or_instantiate::<()>(
                "r",
                &t,
                &[3, 11],
                &[16],
                |_| panic!("must not patch"),
                || panic!("must not lower"),
            )
            .unwrap();
        assert_eq!(out, JitOutcome::ConcreteHit);
        assert_eq!(cache.corruptions(), 1);
    }

    /// `classify` anticipates the three outcomes without perturbing counters.
    #[test]
    fn classify_predicts_without_mutating() {
        let cache = JitCache::new();
        let t = tpl(42);
        assert_eq!(cache.classify(42, &[0, 8], &[16]), JitClass::Miss);
        cache
            .get_or_instantiate::<()>("r", &t, &[0, 8], &[16], |_| unreachable!(), || Ok(dummy(3)))
            .unwrap();
        assert_eq!(cache.classify(42, &[0, 8], &[16]), JitClass::Concrete);
        assert_eq!(
            cache.classify(42, &[5, 13], &[16]),
            JitClass::Template { n_cmds: 0 }
        );
        assert_eq!(cache.classify(42, &[5, 13], &[4, 4]), JitClass::Miss);
        assert_eq!(cache.classify(99, &[0, 8], &[16]), JitClass::Miss);
        // Pure peek: the stats are untouched.
        assert_eq!(cache.stats(), (0, 1));
        assert_eq!(cache.template_hits(), 0);
    }

    /// Instantiation and lowering errors propagate without seeding either
    /// cache level.
    #[test]
    fn template_path_errors_propagate() {
        let cache = JitCache::new();
        let t = tpl(1);
        let r = cache.get_or_instantiate::<&str>(
            "r",
            &t,
            &[],
            &[],
            |_| unreachable!(),
            || Err("cold boom"),
        );
        assert_eq!(r.unwrap_err(), "cold boom");
        assert_eq!(cache.template_count(), 0);
        assert!(cache.is_empty());
        cache
            .get_or_instantiate::<&str>("r", &t, &[], &[], |_| unreachable!(), || Ok(dummy(1)))
            .unwrap();
        let r = cache.get_or_instantiate::<&str>(
            "r",
            &t,
            &[1],
            &[],
            |_| Err("patch boom"),
            || panic!("template is cached"),
        );
        assert_eq!(r.unwrap_err(), "patch boom");
        assert_eq!(cache.len(), 1, "failed patch must not insert");
    }
}
