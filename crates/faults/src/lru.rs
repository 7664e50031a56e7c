//! The bounded least-recently-used map behind every cache in the stack:
//! the serve layer's artifact and pipeline caches, both levels of the JIT
//! cache, the tuner's tables and the simulator's planned-layout cache.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// A verified lookup ([`Lru::get_verified`]) found its key, but the entry
/// failed the caller's check and has been removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Corrupt;

/// A map of at most `cap` entries that evicts the entry used least recently.
///
/// It takes no lock: a cache shared across threads holds it behind one
/// mutex. Every insert and every [`Lru::get`] stamps its entry from a logical
/// clock, and a stamp → key index keeps a full map's victim O(log n) away.
#[derive(Debug)]
pub struct Lru<K, V> {
    map: HashMap<K, (V, u64)>,
    order: BTreeMap<u64, K>,
    cap: usize,
    clock: u64,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// An empty map holding at most `cap` entries (at least one).
    pub fn new(cap: usize) -> Self {
        Lru {
            map: HashMap::new(),
            order: BTreeMap::new(),
            cap: cap.max(1),
            clock: 0,
        }
    }

    /// The entry cap.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The value under `key`, now the most recently used.
    pub fn get(&mut self, key: &K) -> Option<&mut V> {
        let (value, stamp) = self.map.get_mut(key)?;
        let key = self.order.remove(stamp).expect("every entry is indexed");
        *stamp = self.clock;
        self.order.insert(self.clock, key);
        self.clock += 1;
        Some(value)
    }

    /// The value under `key`, recency untouched.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|(value, _)| value)
    }

    /// [`Lru::peek`], mutably.
    pub fn peek_mut(&mut self, key: &K) -> Option<&mut V> {
        self.map.get_mut(key).map(|(value, _)| value)
    }

    /// [`Lru::get`] on the load path of a cache whose entries carry a
    /// checksum (`DESIGN.md` §10): an entry failing `verify` is removed and
    /// reported as [`Corrupt`], which the caller counts and then treats as a
    /// miss.
    pub fn get_verified(
        &mut self,
        key: &K,
        verify: impl FnOnce(&V) -> bool,
    ) -> Result<Option<&mut V>, Corrupt> {
        match self.peek(key) {
            None => Ok(None),
            Some(value) if verify(value) => Ok(self.get(key)),
            Some(_) => {
                let (_, stamp) = self.map.remove(key).expect("just peeked");
                self.order.remove(&stamp);
                Err(Corrupt)
            }
        }
    }

    /// Inserts `value` unless `key` is held already: the first insert wins
    /// and the held value is returned. A new key entering a full map evicts
    /// the least recently used entry, which is handed back.
    pub fn insert(&mut self, key: K, value: V) -> (&mut V, Option<(K, V)>) {
        let mut victim = None;
        if self.map.len() >= self.cap && !self.map.contains_key(&key) {
            let (_, old) = self.order.pop_first().expect("a full map is indexed");
            let (value, _) = self.map.remove(&old).expect("every index names an entry");
            victim = Some((old, value));
        }
        let (held, _) = self.map.entry(key).or_insert_with_key(|key| {
            self.order.insert(self.clock, key.clone());
            self.clock += 1;
            (value, self.clock - 1)
        });
        (held, victim)
    }

    /// Every value, in no particular order (fault injection).
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.map.values_mut().map(|(value, _)| value)
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Xorshift64;

    /// A payload and whether it still passes verification.
    type Value = (u64, bool);

    /// The naive model: a vector in recency order, least recent first.
    struct Reference {
        entries: Vec<(u64, Value)>,
        cap: usize,
    }

    impl Reference {
        fn position(&self, key: u64) -> Option<usize> {
            self.entries.iter().position(|&(k, _)| k == key)
        }

        fn get(&mut self, key: u64) -> Option<Value> {
            let entry = self.entries.remove(self.position(key)?);
            self.entries.push(entry);
            Some(entry.1)
        }

        fn get_verified(&mut self, key: u64) -> Result<Option<Value>, Corrupt> {
            match self.position(key) {
                Some(i) if !self.entries[i].1 .1 => {
                    self.entries.remove(i);
                    Err(Corrupt)
                }
                _ => Ok(self.get(key)),
            }
        }

        fn insert(&mut self, key: u64, value: Value) -> (Value, Option<(u64, Value)>) {
            if let Some(i) = self.position(key) {
                return (self.entries[i].1, None);
            }
            let victim = (self.entries.len() >= self.cap).then(|| self.entries.remove(0));
            self.entries.push((key, value));
            (value, victim)
        }
    }

    /// Random get / peek / insert / corrupt / verified-get sequences over a
    /// few keys agree with the naive model at every cap from 1 to 8: same
    /// answers, same victims, same contents in the same recency order.
    #[test]
    fn matches_a_naive_reference() {
        let mut rng = Xorshift64::new(0x5eed_1ee7);
        for cap in 1..=8 {
            let mut lru = Lru::new(cap);
            let mut reference = Reference {
                entries: Vec::new(),
                cap,
            };
            for step in 0..4_000u64 {
                let key = rng.next_below(12);
                match rng.next_below(5) {
                    0 => assert_eq!(lru.get(&key).copied(), reference.get(key)),
                    1 => {
                        let want = reference.position(key).map(|i| reference.entries[i].1);
                        assert_eq!(lru.peek(&key).copied(), want);
                    }
                    2 => {
                        let (held, victim) = lru.insert(key, (step, true));
                        assert_eq!((*held, victim), reference.insert(key, (step, true)));
                    }
                    3 => {
                        if let Some(value) = lru.peek_mut(&key) {
                            value.1 = false;
                            let i = reference.position(key).expect("same keys held");
                            reference.entries[i].1 .1 = false;
                        }
                    }
                    _ => {
                        let got = lru.get_verified(&key, |v| v.1).map(|v| v.copied());
                        assert_eq!(got, reference.get_verified(key));
                    }
                }
                assert!(lru.len() <= cap);
                let held: Vec<_> = lru
                    .order
                    .values()
                    .map(|k| (*k, *lru.peek(k).expect("indexed keys are held")))
                    .collect();
                assert_eq!(held, reference.entries, "cap {cap}, step {step}");
            }
        }
    }

    #[test]
    fn clear_empties_map_and_index() {
        let mut lru = Lru::new(2);
        lru.insert(1, ());
        lru.insert(2, ());
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.insert(3, ()).1, None, "nothing left to evict");
    }
}
