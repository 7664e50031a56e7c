//! `infs-tune`: online feedback-directed autotuning for the serving layer —
//! see `DESIGN.md` §15.
//!
//! Every layer of the stack already emits telemetry (per-region cycle
//! reports, JIT hit classes, tier decisions, fault counters), but the §4.1
//! tile heuristics and the Eq-2 in/near-memory decision are *static*
//! verdicts: compile-time cost proxies that can disagree with observed
//! cycles. This crate closes the loop. Per artifact (keyed by the serve
//! layer's content hash), a [`Tuner`] maintains a bounded [`TuneTable`] of
//! candidate [`Variant`]s — the heuristic baseline, the layout planner's
//! ranked alternative tiles, forced in-/near-memory tiers, and the pipeline
//! residency policy — routes a small sampled fraction of live traffic
//! through explorer variants, records observed simulated cycles per variant,
//! and promotes an explorer to incumbent once it beats the incumbent by a
//! configurable margin over a minimum sample count.
//!
//! Three properties the design pins down:
//!
//! * **Deterministic sampling.** Explore/exploit and the explorer pick are
//!   pure functions of `(seed, artifact key, per-artifact request sequence)`
//!   via [`infs_faults::mix64`] — no wall clock, no RNG state — so two
//!   identically-seeded servers fed the same request sequence make
//!   byte-identical tuning decisions and a CI run replays locally.
//! * **Monotone promotion.** The incumbent changes only when a challenger
//!   with at least [`TuneConfig::min_samples`] observations beats the
//!   (equally sampled) incumbent's mean cycles by
//!   [`TuneConfig::promote_margin_percent`]. Since every variant computes
//!   bitwise-identical results (functional execution never depends on
//!   placement or tiling), promotion can only change *when* an answer is
//!   ready, never *what* it is.
//! * **Fault-driven demotion.** Degradation events (bank quarantine, regions
//!   pushed off their Eq-2 tier) reach the tuner through
//!   [`infs_faults::RetuneTrigger`]; [`Tuner::degrade`] demotes the
//!   incumbent back to the baseline and clears every sample, because cycles
//!   measured on the healthy machine are stale the moment placement
//!   constraints change.
//!
//! ```
//! use infs_tune::{TuneConfig, Tuner, Variant};
//!
//! let tuner = Tuner::new(TuneConfig::seeded(7));
//! let key = 0xfeed;
//! let candidates = || vec![Variant::Baseline, Variant::ForceInMemory];
//! for _ in 0..64 {
//!     let d = tuner.decide(key, candidates);
//!     // run the region under d.variant, observe cycles...
//!     let cycles = if d.index == 0 { 1000 } else { 600 };
//!     tuner.record(key, &d, cycles);
//! }
//! // The cheaper forced-in-memory variant has been promoted.
//! assert_eq!(tuner.incumbent(key), Some(Variant::ForceInMemory));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use infs_faults::{mix64, Lru};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Domain salt separating the explore/exploit draw from the explorer-pick
/// draw (two independent streams per `(seed, key, seq)`).
const PICK_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// An execution variant the tuner can route a request through. Every
/// variant computes bitwise-identical results; they differ only in cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Variant {
    /// The static heuristics unmodified: the §4.1 argmax tile and the Eq-2
    /// tier decision. Always candidate 0 and the initial incumbent.
    Baseline,
    /// Force a specific tile shape (per-dimension sizes, innermost first)
    /// from the layout planner's ranked feasible candidates.
    Tile(Vec<u64>),
    /// Force the region onto the compute-SRAM bitlines (clamped to
    /// feasibility by the machine).
    ForceInMemory,
    /// Force the region onto the near-memory stream engines.
    ForceNearMemory,
    /// Pipeline residency policy: run the per-kernel round trip instead of
    /// the fused streaming schedule (both produce identical outputs; fused
    /// is usually — not always — faster).
    Roundtrip,
}

impl Variant {
    /// Stable display label (`"baseline"`, `"tile:4x64"`,
    /// `"tier:in-memory"`, `"tier:near-memory"`, `"pipeline:round-trip"`).
    pub fn label(&self) -> String {
        match self {
            Variant::Baseline => "baseline".to_string(),
            Variant::Tile(dims) => format!(
                "tile:{}",
                dims.iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join("x")
            ),
            Variant::ForceInMemory => "tier:in-memory".to_string(),
            Variant::ForceNearMemory => "tier:near-memory".to_string(),
            Variant::Roundtrip => "pipeline:round-trip".to_string(),
        }
    }
}

/// Tuner configuration.
#[derive(Debug, Clone)]
pub struct TuneConfig {
    /// Seed for the deterministic sampler; identical seeds replay identical
    /// explore/exploit sequences.
    pub seed: u64,
    /// Epsilon: the percentage of an artifact's traffic routed through
    /// explorer variants (0–100). The remainder is served by the incumbent.
    pub explore_percent: u32,
    /// Observations a challenger *and* the incumbent each need before a
    /// promotion is considered. Promotion never selects a variant with
    /// fewer samples.
    pub min_samples: u64,
    /// Margin a challenger's mean cycles must beat the incumbent's mean by,
    /// in percent: promote iff `challenger_mean * 100 < incumbent_mean *
    /// (100 - margin)`. A nonzero margin keeps ping-ponging on noise-free
    /// ties impossible and on near-ties unattractive.
    pub promote_margin_percent: u32,
    /// Artifacts tracked at once; the least-recently-decided table is
    /// evicted beyond this (it just re-tunes if that artifact returns).
    pub max_artifacts: usize,
    /// Candidate variants kept per artifact (including the baseline);
    /// callers' candidate lists are truncated to this.
    pub max_variants: usize,
}

impl TuneConfig {
    /// The default tuning policy under a caller-chosen seed: explore 25% of
    /// traffic, promote on ≥3 samples with a 2% margin, track 64 artifacts
    /// × 8 variants.
    pub fn seeded(seed: u64) -> Self {
        TuneConfig {
            seed,
            explore_percent: 25,
            min_samples: 3,
            promote_margin_percent: 2,
            max_artifacts: 64,
            max_variants: 8,
        }
    }
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig::seeded(0)
    }
}

/// Accumulated observations for one variant of one artifact.
#[derive(Debug, Clone, Default)]
pub struct VariantStats {
    /// Requests served under this variant since the table (re)opened.
    pub samples: u64,
    /// Sum of observed simulated cycles over those requests.
    pub total_cycles: u128,
    /// Most recently observed cycles.
    pub last_cycles: u64,
}

impl VariantStats {
    /// Mean observed cycles, `None` before the first sample.
    pub fn mean_cycles(&self) -> Option<f64> {
        (self.samples > 0).then(|| self.total_cycles as f64 / self.samples as f64)
    }
}

/// The per-artifact candidate table: variants, their observations, and the
/// current incumbent. Bounded by [`TuneConfig::max_variants`].
#[derive(Debug, Clone)]
pub struct TuneTable {
    /// Candidate variants; index 0 is always [`Variant::Baseline`].
    pub candidates: Vec<Variant>,
    /// Observations, aligned with `candidates`.
    pub stats: Vec<VariantStats>,
    /// Index of the variant serving exploit traffic.
    pub incumbent: usize,
    /// Requests decided for this artifact (the sampler's sequence number).
    pub seq: u64,
    /// Incumbent changes won by a challenger.
    pub promotions: u64,
    /// Fault-driven resets back to the baseline.
    pub demotions: u64,
}

/// One routing decision: which variant this request runs under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Candidate index within the artifact's [`TuneTable`].
    pub index: usize,
    /// The chosen variant.
    pub variant: Variant,
    /// True when this request samples an explorer variant rather than the
    /// incumbent.
    pub explore: bool,
    /// The per-artifact sequence number the sampler drew on.
    pub seq: u64,
}

/// Tuner-wide counters (the serve `Metrics` verb's tune block).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TuneStats {
    /// Requests routed through an explorer variant.
    pub explored: u64,
    /// Requests served by the incumbent.
    pub exploited: u64,
    /// Promotions across all artifacts.
    pub promotions: u64,
    /// Fault-driven demotions across all artifacts.
    pub demotions: u64,
    /// Artifacts with a live tune table.
    pub artifacts: usize,
}

/// The online autotuner: one per server (per shard — tuner state is shard-
/// local and survives shed/reroute because it lives with the shard, not the
/// request).
#[derive(Debug)]
pub struct Tuner {
    cfg: TuneConfig,
    /// Tables by artifact, evicting the least recently decided.
    tables: Mutex<Lru<u64, TuneTable>>,
    explored: AtomicU64,
    exploited: AtomicU64,
    promotions: AtomicU64,
    demotions: AtomicU64,
}

impl Tuner {
    /// A tuner with the given policy.
    pub fn new(cfg: TuneConfig) -> Self {
        Tuner {
            tables: Mutex::new(Lru::new(cfg.max_artifacts)),
            cfg,
            explored: AtomicU64::new(0),
            exploited: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
        }
    }

    /// The tuner's configuration.
    pub fn config(&self) -> &TuneConfig {
        &self.cfg
    }

    /// Routes one request for `key`: epsilon-greedy over the artifact's
    /// candidate table. `candidates` is invoked exactly once, on the
    /// artifact's first request, to enumerate the variant space (element 0
    /// must be the baseline; the tuner inserts it if missing, and truncates
    /// to [`TuneConfig::max_variants`]).
    ///
    /// The decision is a pure function of `(seed, key, seq, incumbent)`:
    /// draw 1 (`mix64(seed, key, seq) % 100`) picks explore vs exploit,
    /// draw 2 (salted) picks uniformly among the non-incumbent candidates.
    pub fn decide(&self, key: u64, candidates: impl FnOnce() -> Vec<Variant>) -> Decision {
        let mut tables = self.tables.lock().expect("tune tables lock");
        if tables.peek(&key).is_none() {
            let mut list = candidates();
            if list.first() != Some(&Variant::Baseline) {
                list.insert(0, Variant::Baseline);
            }
            list.truncate(self.cfg.max_variants.max(1));
            let n = list.len();
            // A full map evicts the least recently decided artifact; it
            // simply re-tunes from scratch if its traffic returns.
            tables.insert(
                key,
                TuneTable {
                    candidates: list,
                    stats: vec![VariantStats::default(); n],
                    incumbent: 0,
                    seq: 0,
                    promotions: 0,
                    demotions: 0,
                },
            );
        }
        let entry = tables.get(&key).expect("held or just inserted");
        let seq = entry.seq;
        entry.seq += 1;
        let explore = entry.candidates.len() > 1
            && mix64(self.cfg.seed, key, seq) % 100 < u64::from(self.cfg.explore_percent.min(100));
        let index = if explore {
            let others = (entry.candidates.len() - 1) as u64;
            let mut i = (mix64(self.cfg.seed ^ PICK_SALT, key, seq) % others) as usize;
            if i >= entry.incumbent {
                i += 1;
            }
            i
        } else {
            entry.incumbent
        };
        if explore {
            self.explored.fetch_add(1, Ordering::Relaxed);
            infs_trace::counter!("tune.explore", 1u64);
        } else {
            self.exploited.fetch_add(1, Ordering::Relaxed);
            infs_trace::counter!("tune.exploit", 1u64);
        }
        Decision {
            index,
            variant: entry.candidates[index].clone(),
            explore,
            seq,
        }
    }

    /// Records the observed simulated cycles for a decided request and runs
    /// the promotion rule. Returns `true` when this observation promoted
    /// the decided variant to incumbent.
    pub fn record(&self, key: u64, decision: &Decision, cycles: u64) -> bool {
        let mut tables = self.tables.lock().expect("tune tables lock");
        let Some(entry) = tables.peek_mut(&key) else {
            return false; // table evicted between decide and record
        };
        let Some(stat) = entry.stats.get_mut(decision.index) else {
            return false; // table rebuilt (demotion cleared it) mid-flight
        };
        stat.samples += 1;
        stat.total_cycles += u128::from(cycles);
        stat.last_cycles = cycles;
        if decision.index == entry.incumbent {
            return false;
        }
        let challenger = &entry.stats[decision.index];
        let incumbent = &entry.stats[entry.incumbent];
        let (Some(cand_mean), Some(inc_mean)) = (challenger.mean_cycles(), incumbent.mean_cycles())
        else {
            return false;
        };
        if challenger.samples < self.cfg.min_samples || incumbent.samples < self.cfg.min_samples {
            return false;
        }
        let margin = f64::from(self.cfg.promote_margin_percent.min(100));
        if cand_mean * 100.0 < inc_mean * (100.0 - margin) {
            entry.incumbent = decision.index;
            entry.promotions += 1;
            self.promotions.fetch_add(1, Ordering::Relaxed);
            infs_trace::counter!("tune.promotions", 1u64);
            true
        } else {
            false
        }
    }

    /// Fault-driven retune (`DESIGN.md` §15): degradation events invalidated
    /// whatever placement the incumbent was promoted on. Demotes the
    /// incumbent back to the baseline and clears **all** samples — cycles
    /// measured on the pre-fault machine are stale — so the artifact
    /// re-tunes against post-fault reality. Returns `true` when a non-
    /// baseline incumbent was actually demoted.
    pub fn degrade(&self, key: u64) -> bool {
        let mut tables = self.tables.lock().expect("tune tables lock");
        let Some(entry) = tables.peek_mut(&key) else {
            return false;
        };
        for stat in &mut entry.stats {
            *stat = VariantStats::default();
        }
        let demoted = entry.incumbent != 0;
        if demoted {
            entry.incumbent = 0;
            entry.demotions += 1;
            self.demotions.fetch_add(1, Ordering::Relaxed);
            infs_trace::counter!("tune.demotions", 1u64);
        }
        demoted
    }

    /// The current incumbent variant for an artifact, if it has a table.
    pub fn incumbent(&self, key: u64) -> Option<Variant> {
        let tables = self.tables.lock().expect("tune tables lock");
        tables.peek(&key).map(|t| t.candidates[t.incumbent].clone())
    }

    /// A copy of an artifact's tune table (tests, benches, figures).
    pub fn table(&self, key: u64) -> Option<TuneTable> {
        self.tables
            .lock()
            .expect("tune tables lock")
            .peek(&key)
            .cloned()
    }

    /// Tuner-wide counters.
    pub fn stats(&self) -> TuneStats {
        TuneStats {
            explored: self.explored.load(Ordering::Relaxed),
            exploited: self.exploited.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            demotions: self.demotions.load(Ordering::Relaxed),
            artifacts: self.tables.lock().expect("tune tables lock").len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidates() -> Vec<Variant> {
        vec![
            Variant::Baseline,
            Variant::Tile(vec![4, 64]),
            Variant::ForceInMemory,
        ]
    }

    #[test]
    fn explores_roughly_epsilon_of_traffic() {
        let tuner = Tuner::new(TuneConfig::seeded(42));
        let n = 1000;
        let mut explored = 0;
        for _ in 0..n {
            let d = tuner.decide(1, candidates);
            if d.explore {
                explored += 1;
            }
            tuner.record(1, &d, 100);
        }
        // 25% ± generous slack; the draw is uniform over mix64 output.
        assert!((150..350).contains(&explored), "explored {explored}/{n}");
    }

    #[test]
    fn promotes_cheaper_variant_and_serves_it() {
        let tuner = Tuner::new(TuneConfig::seeded(7));
        for _ in 0..200 {
            let d = tuner.decide(9, candidates);
            let cycles = match d.index {
                2 => 500, // forced in-memory is much cheaper
                _ => 1000,
            };
            tuner.record(9, &d, cycles);
        }
        assert_eq!(tuner.incumbent(9), Some(Variant::ForceInMemory));
        let t = tuner.table(9).unwrap();
        assert!(t.promotions >= 1);
        // Exploit traffic now runs the promoted variant.
        let d = loop {
            let d = tuner.decide(9, candidates);
            if !d.explore {
                break d;
            }
        };
        assert_eq!(d.variant, Variant::ForceInMemory);
    }

    #[test]
    fn margin_blocks_near_tie_promotion() {
        let mut cfg = TuneConfig::seeded(3);
        cfg.promote_margin_percent = 10;
        let tuner = Tuner::new(cfg);
        for _ in 0..300 {
            let d = tuner.decide(4, candidates);
            // Challenger is only 5% cheaper: inside the 10% margin.
            let cycles = if d.index == 0 { 1000 } else { 950 };
            tuner.record(4, &d, cycles);
        }
        assert_eq!(tuner.incumbent(4), Some(Variant::Baseline));
    }

    #[test]
    fn degrade_demotes_and_clears_samples() {
        let tuner = Tuner::new(TuneConfig::seeded(7));
        for _ in 0..200 {
            let d = tuner.decide(9, candidates);
            tuner.record(9, &d, if d.index == 2 { 500 } else { 1000 });
        }
        assert_eq!(tuner.incumbent(9), Some(Variant::ForceInMemory));
        assert!(tuner.degrade(9));
        assert_eq!(tuner.incumbent(9), Some(Variant::Baseline));
        let t = tuner.table(9).unwrap();
        assert!(t.stats.iter().all(|s| s.samples == 0));
        assert_eq!(t.demotions, 1);
        // Degrading a baseline incumbent clears samples but demotes nothing.
        assert!(!tuner.degrade(9));
    }

    #[test]
    fn table_cap_evicts_least_recently_decided() {
        let mut cfg = TuneConfig::seeded(1);
        cfg.max_artifacts = 2;
        let tuner = Tuner::new(cfg);
        tuner.decide(1, candidates);
        tuner.decide(2, candidates);
        tuner.decide(2, candidates);
        tuner.decide(3, candidates); // evicts key 1 (least recently decided)
        assert!(tuner.table(1).is_none());
        assert!(tuner.table(2).is_some());
        assert!(tuner.table(3).is_some());
        assert_eq!(tuner.stats().artifacts, 2);
    }

    #[test]
    fn baseline_inserted_when_missing() {
        let tuner = Tuner::new(TuneConfig::seeded(5));
        let d = tuner.decide(11, || vec![Variant::ForceNearMemory]);
        let t = tuner.table(11).unwrap();
        assert_eq!(t.candidates[0], Variant::Baseline);
        assert_eq!(t.candidates[1], Variant::ForceNearMemory);
        assert_eq!(t.incumbent, 0);
        drop(d);
    }
}
