//! The machine's residency ledger: where every array of the workload's table
//! lives, and what moving it costs in bytes (`DESIGN.md` §7). The ledger
//! decides; [`crate::Machine`]'s one `charge` function prices the bytes.
//! Four rules live here and nowhere else: a clean array is dropped for free
//! and only a dirty one is written back; a tile mismatch re-lays-out the
//! arrays the entry needs and no others; transposed bytes are bounded by the
//! compute ways, least-recently-used non-needed arrays going first; and every
//! byte an entry moves, write-backs included, is in the charge it gets back.

use infs_geom::TileShape;

/// Where one array lives.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Form {
    /// In DRAM only.
    Cold,
    /// Cached in L3 in its normal layout.
    Warm,
    /// Transposed into the compute ways; `dirty` once written in that form.
    Transposed { tile: TileShape, dirty: bool },
}

#[derive(Debug, Clone)]
struct Entry {
    form: Form,
    bytes: u64,
    /// Ledger clock of the last operation naming this array (LRU order).
    stamp: u64,
}

impl Entry {
    fn is_transposed(&self) -> bool {
        matches!(self.form, Form::Transposed { .. })
    }

    /// Drops the array to DRAM, returning the bytes to write back.
    fn evict(&mut self) -> u64 {
        let dirty = matches!(self.form, Form::Transposed { dirty: true, .. });
        self.form = Form::Cold;
        if dirty {
            self.bytes
        } else {
            0
        }
    }
}

/// Bytes one ledger operation moves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Charge {
    /// Bytes streamed through the transpose unit into a tile.
    pub relayout: u64,
    /// Bytes fetched from DRAM (part of `relayout`, or a warm fetch).
    pub cold: u64,
    /// Dirty transposed bytes written back to DRAM.
    pub writeback: u64,
    /// Arrays the capacity bound evicted.
    pub capacity_evictions: u64,
}

/// Per-array `{form, tile, dirty}` plus an LRU stamp, bounded by the byte
/// capacity of the compute ways. Array ids index the machine's array table.
#[derive(Debug, Clone)]
pub(crate) struct Residency {
    entries: Vec<Entry>,
    capacity: u64,
    clock: u64,
}

impl Residency {
    /// A ledger over arrays of the given byte sizes, all cold.
    pub fn new(sizes: impl IntoIterator<Item = u64>, capacity: u64) -> Self {
        let mut ledger = Residency {
            entries: Vec::new(),
            capacity,
            clock: 0,
        };
        ledger.clear(sizes);
        ledger
    }

    /// Forgets all residency and re-targets the ledger at a table of arrays
    /// of the given byte sizes (a fresh request on a resident machine).
    pub fn clear(&mut self, sizes: impl IntoIterator<Item = u64>) {
        let entry = |bytes| Entry {
            form: Form::Cold,
            bytes,
            stamp: 0,
        };
        self.entries = sizes.into_iter().map(entry).collect();
    }

    /// Marks every cold array warm (§6: inputs already tiled to fit L3).
    pub fn warm_all(&mut self) {
        for e in self.entries.iter_mut().filter(|e| e.form == Form::Cold) {
            e.form = Form::Warm;
        }
    }

    /// Brings `needed` into transposed form under `tile` for an in-memory
    /// entry that writes `written` (a subset of `needed`).
    pub fn admit(&mut self, needed: &[u32], written: &[u32], tile: &TileShape) -> Charge {
        let mut charge = Charge::default();
        self.clock += 1;
        let now = self.clock;
        for &a in needed {
            let e = &mut self.entries[a as usize];
            e.stamp = now;
            let writes = written.contains(&a);
            match &mut e.form {
                Form::Transposed { tile: t, dirty } if *t == *tile => *dirty |= writes,
                form => {
                    charge.relayout += e.bytes;
                    match form {
                        Form::Cold => charge.cold += e.bytes,
                        Form::Transposed { dirty: true, .. } => charge.writeback += e.bytes,
                        _ => {}
                    }
                    *form = Form::Transposed {
                        tile: tile.clone(),
                        dirty: writes,
                    };
                }
            }
        }
        let transposed = self.entries.iter().filter(|e| e.is_transposed());
        let mut used: u64 = transposed.map(|e| e.bytes).sum();
        while used > self.capacity {
            // Least recently used first, lowest id among equals; never an
            // array this entry needs (those carry `now`).
            let lru = self.entries.iter_mut().filter(|e| e.is_transposed());
            let Some(victim) = lru.filter(|e| e.stamp < now).min_by_key(|e| e.stamp) else {
                break;
            };
            used -= victim.bytes;
            charge.writeback += victim.evict();
            charge.capacity_evictions += 1;
        }
        charge
    }

    /// Records a core or near-memory region streaming over `arrays` and
    /// storing to `written`: cold arrays become warm, transposed ones stay
    /// transposed (§5.3) and turn dirty when written. Returns the bytes that
    /// were cold.
    pub fn touch(&mut self, arrays: &[u32], written: &[u32]) -> u64 {
        self.clock += 1;
        let mut cold = 0;
        for &a in arrays {
            let e = &mut self.entries[a as usize];
            e.stamp = self.clock;
            match &mut e.form {
                Form::Cold => {
                    cold += e.bytes;
                    e.form = Form::Warm;
                }
                Form::Warm => {}
                Form::Transposed { dirty, .. } => *dirty |= written.contains(&a),
            }
        }
        cold
    }

    /// Drops `arrays` to DRAM; the charge is the write-back of the dirty ones.
    pub fn evict(&mut self, arrays: impl IntoIterator<Item = u32>) -> Charge {
        let writeback = arrays.into_iter().map(|a| self.entries[a as usize].evict());
        Charge {
            writeback: writeback.sum(),
            ..Charge::default()
        }
    }

    /// Drops every array (delayed release, §5.2).
    pub fn evict_all(&mut self) -> Charge {
        self.evict(0..self.entries.len() as u32)
    }

    /// Whether any array is in transposed form.
    pub fn any_transposed(&self) -> bool {
        self.entries.iter().any(Entry::is_transposed)
    }

    /// The tile holding the most transposed bytes of `arrays` (the first such
    /// tile in `arrays` order on a tie), if any of them is transposed.
    pub fn resident_tile(&self, arrays: impl IntoIterator<Item = u32>) -> Option<&TileShape> {
        let mut held: Vec<(&TileShape, u64)> = Vec::new();
        for a in arrays {
            let e = &self.entries[a as usize];
            if let Form::Transposed { tile, .. } = &e.form {
                match held.iter_mut().find(|(t, _)| *t == tile) {
                    Some((_, bytes)) => *bytes += e.bytes,
                    None => held.push((tile, e.bytes)),
                }
            }
        }
        // `max_by_key` keeps the last maximum; reversed, that is the first.
        let most = held.into_iter().rev().max_by_key(|&(_, bytes)| bytes);
        most.map(|(tile, _)| tile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three arrays of 100, 200 and 400 bytes, all warm.
    fn ledger(capacity: u64) -> Residency {
        let mut r = Residency::new([100, 200, 400], capacity);
        r.warm_all();
        r
    }

    /// Two tile shapes to tell apart.
    fn tiles() -> (TileShape, TileShape) {
        let tile = |dims: [u64; 2]| TileShape::new(dims.to_vec()).unwrap();
        (tile([16, 16]), tile([64, 4]))
    }

    #[test]
    fn only_dirty_arrays_are_written_back() {
        let (mut r, (t1, _)) = (ledger(u64::MAX), tiles());
        let c = r.admit(&[0, 1], &[1], &t1);
        assert_eq!((c.relayout, c.cold, c.writeback), (300, 0, 0));
        // Array 0 was only read: dropping it is free. Array 1 was written.
        assert_eq!(r.evict_all().writeback, 200);
        assert!(!r.any_transposed());
        assert_eq!(r.evict_all(), Charge::default(), "second release: no-op");
        // What was released is cold when it comes back.
        let c = r.admit(&[0], &[], &t1);
        assert_eq!((c.relayout, c.cold), (100, 100));
    }

    #[test]
    fn tile_mismatch_relayouts_only_what_the_entry_needs() {
        let (mut r, (t1, t2)) = (ledger(u64::MAX), tiles());
        r.admit(&[0, 1, 2], &[1], &t1);
        let c = r.admit(&[0, 1], &[1], &t2);
        // 0 (clean) and 1 (dirty) move to T2; 2 is not needed and stays.
        assert_eq!((c.relayout, c.cold, c.writeback), (300, 0, 200));
        assert_eq!(
            r.admit(&[2], &[], &t1),
            Charge::default(),
            "reused for free"
        );
        assert_eq!(r.resident_tile([0, 1, 2]), Some(&t1), "400 bytes beat 300");
        assert_eq!(r.resident_tile([0, 1]), Some(&t2));
        assert_eq!(r.resident_tile([]), None);
    }

    #[test]
    fn capacity_evicts_the_least_recently_used_array_the_entry_does_not_need() {
        let (mut r, (t1, _)) = (ledger(650), tiles());
        r.admit(&[0], &[0], &t1);
        r.admit(&[1], &[], &t1);
        // 100 + 200 + 400 > 650: array 0 is the oldest, and it is dirty.
        let c = r.admit(&[2], &[], &t1);
        assert_eq!((c.capacity_evictions, c.writeback), (1, 100));
        assert_eq!(r.admit(&[1, 2], &[], &t1), Charge::default(), "kept");
        assert_eq!(r.touch(&[0], &[]), 100, "evicted to DRAM");
        // A needed array is never the victim, even when it is the oldest and
        // the set cannot fit.
        let mut r = ledger(250);
        r.admit(&[0], &[], &t1);
        let c = r.admit(&[0, 1], &[], &t1);
        assert_eq!(c.capacity_evictions, 0);
        assert_eq!(r.admit(&[0, 1], &[], &t1), Charge::default());
    }

    #[test]
    fn cores_dirty_transposed_data_in_place() {
        let (t1, _) = tiles();
        let mut r = Residency::new([100, 200], u64::MAX);
        assert_eq!(r.touch(&[0, 1], &[1]), 300, "both were cold");
        assert_eq!(r.touch(&[0, 1], &[1]), 0);
        assert_eq!(
            r.evict_all(),
            Charge::default(),
            "warm data has no write-back"
        );
        r.admit(&[0, 1], &[], &t1);
        r.touch(&[1], &[1]);
        assert!(r.any_transposed(), "§5.3: a core access keeps the form");
        assert_eq!(r.evict([0, 1]).writeback, 200);
    }

    /// A seeded source of small random choices.
    struct Rng(infs_faults::Xorshift64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0.next_u64() % n
        }

        /// A random subset of `from`, in order.
        fn pick(&mut self, from: impl IntoIterator<Item = u32>) -> Vec<u32> {
            from.into_iter().filter(|_| self.below(2) == 0).collect()
        }
    }

    /// Whether an entry is transposed under `tile` and dirty.
    fn dirty_in(e: &Entry, tile: &TileShape) -> bool {
        matches!(&e.form, Form::Transposed { tile: t, dirty: true } if t == tile)
    }

    /// Bytes of the dirty transposed arrays of `before` that are no longer
    /// held in the same tile in `after` — what a drop must write back.
    fn dirty_dropped(before: &[Entry], after: &[Entry]) -> u64 {
        let dropped = before.iter().zip(after).filter(|(b, a)| match &b.form {
            Form::Transposed { tile, dirty: true } => !matches!(
                &a.form, Form::Transposed { tile: t, .. } if t == tile
            ),
            _ => false,
        });
        dropped.map(|(b, _)| b.bytes).sum()
    }

    fn transposed_bytes(r: &Residency) -> u64 {
        let transposed = r.entries.iter().filter(|e| e.is_transposed());
        transposed.map(|e| e.bytes).sum()
    }

    #[test]
    fn random_sequences_keep_the_capacity_rule() {
        let (t1, t2) = tiles();
        let mut bound_seeds = 0;
        for seed in 1..=300 {
            let mut rng = Rng(infs_faults::Xorshift64::new(seed));
            let n = 2 + rng.below(6) as usize;
            let sizes: Vec<u64> = (0..n).map(|_| 1 + rng.below(64)).collect();
            let capacity = rng.below(200);
            let mut r = Residency::new(sizes.iter().copied(), capacity);
            if rng.below(2) == 0 {
                r.warm_all();
            }
            let mut bound = false;
            for step in 0..40 {
                let before = r.entries.clone();
                let ctx = format!("seed {seed} step {step}");
                match rng.below(4) {
                    0 | 1 => {
                        let needed = rng.pick(0..n as u32);
                        let written = rng.pick(needed.iter().copied());
                        let tile = if rng.below(3) == 0 { &t2 } else { &t1 };
                        let c = r.admit(&needed, &written, tile);
                        let after = &r.entries;
                        for &a in &needed {
                            let e = &after[a as usize];
                            let want = Form::Transposed {
                                tile: tile.clone(),
                                dirty: written.contains(&a) || dirty_in(&before[a as usize], tile),
                            };
                            assert_eq!(e.form, want, "{ctx}: needed array {a}");
                        }
                        assert_eq!(c.writeback, dirty_dropped(&before, after), "{ctx}");
                        // Victims: transposed arrays the entry did not name,
                        // now cold — all older than every such survivor.
                        let others = (0..n as u32).filter(|a| !needed.contains(a));
                        let (victims, kept): (Vec<u32>, Vec<u32>) = others
                            .filter(|&a| before[a as usize].is_transposed())
                            .partition(|&a| !after[a as usize].is_transposed());
                        assert_eq!(c.capacity_evictions, victims.len() as u64, "{ctx}");
                        let stamp = |a: &u32| before[*a as usize].stamp;
                        if let (Some(v), Some(k)) = (
                            victims.iter().map(stamp).max(),
                            kept.iter().map(stamp).min(),
                        ) {
                            assert!(v <= k, "{ctx}: evicted stamp {v} over kept {k}");
                        }
                        let need: u64 = needed.iter().map(|&a| sizes[a as usize]).sum();
                        if need <= capacity {
                            assert!(transposed_bytes(&r) <= capacity, "{ctx}");
                        }
                        bound |= c.capacity_evictions > 0;
                    }
                    2 => {
                        let arrays = rng.pick(0..n as u32);
                        let written = rng.pick(arrays.iter().copied());
                        let cold = arrays
                            .iter()
                            .filter(|&&a| before[a as usize].form == Form::Cold);
                        let want: u64 = cold.map(|&a| sizes[a as usize]).sum();
                        assert_eq!(r.touch(&arrays, &written), want, "{ctx}");
                        assert_eq!(dirty_dropped(&before, &r.entries), 0, "{ctx}");
                    }
                    _ => {
                        let arrays = rng.pick(0..n as u32);
                        let c = r.evict(arrays.iter().copied());
                        assert_eq!(c.writeback, dirty_dropped(&before, &r.entries), "{ctx}");
                        assert!(arrays
                            .iter()
                            .all(|&a| r.entries[a as usize].form == Form::Cold));
                    }
                }
            }
            bound_seeds += u32::from(bound);
        }
        assert!(bound_seeds > 0, "no seed made the capacity bound bind");
    }
}
