//! Seeded pseudo-random primitives used by fault plans and retry jitter.
//!
//! Two flavors:
//!
//! * [`Xorshift64`] — a tiny sequential PRNG (xorshift64\*) for places that
//!   draw a *stream* of values under one owner (e.g. picking the initially
//!   dead banks inside [`crate::FaultPlan::initial_health`]).
//! * [`mix64`] — a stateless splitmix64-style finalizer over
//!   `(seed, domain, index)`. Fault-plan queries use this so the answer for
//!   sequence number `i` is independent of the order in which worker threads
//!   ask — a requirement for deterministic schedules under real concurrency.

use std::io;

/// A minimal xorshift64\* PRNG. Deterministic, `no_std`-friendly, and cheap.
///
/// Not cryptographic; used only for reproducible fault schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xorshift64 {
    state: u64,
}

impl Xorshift64 {
    /// Create a generator from `seed`. A zero seed is remapped to a fixed
    /// non-zero constant (xorshift has a zero fixed point).
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            },
        }
    }

    /// Next 64-bit value (xorshift64\* output scrambling).
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform-ish value in `0..bound` (`bound == 0` returns 0).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// Stateless splitmix64-style hash of `(seed, domain, index)`.
///
/// Every [`crate::FaultPlan`] query is a pure function of this value, so the
/// schedule is independent of thread interleaving: whichever worker asks
/// about sequence number `i` gets the same answer.
pub fn mix64(seed: u64, domain: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(domain.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a-style hash of a byte string: tiny, dependency-free, stable across
/// platforms and processes (unlike `DefaultHasher`, which is seeded per
/// process) — the one content hash behind artifact ids, pipeline keys, tune
/// keys and tenant ring positions.
///
/// The multiplier is `2^44 + 0x1b3`, **not** the published 64-bit FNV prime
/// (`2^40 + 0x1b3`): the artifact ids clients hold and the tuner's seeded
/// decision sequence are functions of it, so it stays as first written.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// [`fnv1a`] fed in pieces: the hash of the concatenation of everything
/// written, so an encoder can stream into it (it is an [`io::Write`] sink)
/// instead of materialising the bytes first.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The hash of the empty string.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Appends `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl io::Write for Fnv1a {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        Fnv1a::write(self, bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the function artifact ids are made of: the FNV offset basis and
    /// this crate's multiplier (the published prime would give
    /// `0xaf63_dc4c_8601_ec8c` for `"a"`).
    #[test]
    fn fnv1a_is_pinned() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf74_d84c_8601_ec8c);
    }

    /// Fed in pieces — by hand or as an `io::Write` sink — the hash is the
    /// hash of the concatenation, wherever the pieces split.
    #[test]
    fn incremental_fnv1a_is_the_hash_of_the_concatenation() {
        use std::io::Write;
        let bytes: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0, 1, 7, 8, 999, 1000] {
            let mut h = Fnv1a::new();
            h.write(&bytes[..split]);
            h.write_all(&bytes[split..]).unwrap();
            assert_eq!(h.finish(), fnv1a(&bytes), "split at {split}");
        }
    }

    #[test]
    fn xorshift_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = Xorshift64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Xorshift64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Xorshift64::new(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut r = Xorshift64::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = Xorshift64::new(7);
        for _ in 0..100 {
            assert!(r.next_below(13) < 13);
        }
        assert_eq!(r.next_below(0), 0);
    }

    #[test]
    fn mix64_is_a_pure_function() {
        assert_eq!(mix64(1, 2, 3), mix64(1, 2, 3));
        assert_ne!(mix64(1, 2, 3), mix64(2, 2, 3));
        assert_ne!(mix64(1, 2, 3), mix64(1, 3, 3));
        assert_ne!(mix64(1, 2, 3), mix64(1, 2, 4));
    }
}
