//! Health-aware offload decisions: the degradation ladder.
//!
//! When L3 banks are quarantined (see `infs-faults` and `DESIGN.md` §10),
//! the Eq 2 decision gains a third outcome — falling all the way back to
//! the host — and its in-memory latency estimate must account for the work
//! the dead banks no longer absorb. This module keeps that logic next to
//! [`decide`] so the simulator and serving layer share one ladder.

use crate::{decide, HwConfig, Paradigm};
use infs_faults::BankHealth;
use infs_tdfg::OpProfile;

/// An execution tier, ordered by *availability*: [`Tier::Host`] needs
/// nothing beyond the cores, [`Tier::NearMemory`] needs at least one live
/// L3 bank's stream engine, [`Tier::InMemory`] needs a healthy quorum of
/// compute-SRAM banks. Degradation only ever moves *down* this order
/// (`InMemory → NearMemory → Host`); the proptests in
/// `tests/health_properties.rs` pin that monotonicity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Run on the host cores: always available.
    Host,
    /// Offload the sDFG to the L3 stream engines.
    NearMemory,
    /// Offload the tDFG to the compute-SRAM bitlines.
    InMemory,
}

/// Does the health mask leave enough banks for in-memory execution?
///
/// In-memory offload needs a strict majority quorum: at least half the
/// banks healthy. Below that, the transposed layout would concentrate so
/// many tiles per surviving bank that the paper's "latency independent of
/// `N_elem`" premise breaks down, so the ladder skips straight to
/// near-memory.
pub fn in_memory_quorum(health: &BankHealth) -> bool {
    health.any_healthy() && u64::from(health.healthy_count()) * 2 >= u64::from(health.n_banks())
}

/// Eq 2 with a health mask: the three-tier degradation decision.
///
/// * No healthy banks → [`Tier::Host`] (the stream engines live at the
///   banks too).
/// * Below the in-memory quorum → [`Tier::NearMemory`].
/// * Otherwise re-run [`decide`] with the bit-serial latency scaled by
///   `n_banks / healthy` (dead banks' tiles fold onto survivors, serializing
///   their bit-serial work), mapping the paradigm onto the tier.
///
/// Because the scale factor grows monotonically as banks die, a region can
/// only move down the ladder as health degrades — never up.
pub fn decide_healthy(
    profile: &OpProfile,
    hw: &HwConfig,
    expected_jit_cycles: u64,
    health: &BankHealth,
) -> Tier {
    let healthy = u64::from(health.healthy_count());
    if healthy == 0 {
        return Tier::Host;
    }
    if !in_memory_quorum(health) {
        return Tier::NearMemory;
    }
    let mut scaled = profile.clone();
    scaled.total_bit_serial_latency = profile
        .total_bit_serial_latency
        .saturating_mul(u64::from(health.n_banks()))
        .div_ceil(healthy);
    match decide(&scaled, hw, expected_jit_cycles) {
        Paradigm::InMemory => Tier::InMemory,
        Paradigm::NearMemory => Tier::NearMemory,
    }
}

/// Round-robin placement of `n_items` work items over the *healthy* banks
/// only. Returns the bank index for each item, or `None` when no bank is
/// healthy (the caller must degrade to the host tier).
pub fn place_on_healthy(n_items: usize, health: &BankHealth) -> Option<Vec<u32>> {
    let banks = health.healthy_banks();
    if banks.is_empty() {
        return None;
    }
    Some((0..n_items).map(|i| banks[i % banks.len()]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(elems: u64, lat: u64) -> OpProfile {
        OpProfile {
            max_domain_elems: elems,
            ops_per_elem: 3,
            total_elem_ops: elems * 3,
            total_bit_serial_latency: lat,
            node_count: 8,
            moved_elems: 0,
            per_op: Vec::new(),
        }
    }

    #[test]
    fn tier_order_matches_availability() {
        assert!(Tier::Host < Tier::NearMemory);
        assert!(Tier::NearMemory < Tier::InMemory);
    }

    #[test]
    fn full_health_matches_plain_decide() {
        let hw = HwConfig::default();
        let health = BankHealth::all_healthy(hw.n_banks);
        let big = profile(4 << 20, 1_000);
        let small = profile(16 << 10, 1_000);
        assert_eq!(decide_healthy(&big, &hw, 500, &health), Tier::InMemory);
        assert_eq!(decide(&big, &hw, 500), Paradigm::InMemory);
        assert_eq!(decide_healthy(&small, &hw, 500, &health), Tier::NearMemory);
    }

    #[test]
    fn dead_banks_push_down_the_ladder() {
        let hw = HwConfig::default();
        // Barely in-memory at full health: lhs = 3·2²¹/16 ≈ 393k core
        // cycles vs 300k bit-serial + overheads.
        let p = profile(1 << 21, 300_000);
        let mut health = BankHealth::all_healthy(hw.n_banks);
        assert_eq!(decide_healthy(&p, &hw, 500, &health), Tier::InMemory);
        // Halve the banks: scaled latency doubles and flips the decision.
        for b in 0..hw.n_banks / 2 {
            health.mark_dead(b);
        }
        assert_eq!(decide_healthy(&p, &hw, 500, &health), Tier::NearMemory);
        // Kill the rest: even near-memory is gone.
        for b in 0..hw.n_banks {
            health.mark_dead(b);
        }
        assert_eq!(decide_healthy(&p, &hw, 500, &health), Tier::Host);
    }

    #[test]
    fn below_quorum_never_in_memory() {
        let hw = HwConfig::default();
        let p = profile(u64::MAX / 8, 1); // would trivially win Eq 2
        let mut health = BankHealth::all_healthy(hw.n_banks);
        for b in 0..hw.n_banks / 2 + 1 {
            health.mark_dead(b);
        }
        assert!(!in_memory_quorum(&health));
        assert_eq!(decide_healthy(&p, &hw, 0, &health), Tier::NearMemory);
    }

    #[test]
    fn placement_skips_dead_banks() {
        let mut health = BankHealth::all_healthy(8);
        health.mark_dead(0);
        health.mark_dead(3);
        let places = place_on_healthy(12, &health).unwrap();
        assert_eq!(places.len(), 12);
        for b in &places {
            assert!(health.is_healthy(*b));
        }
        // Round-robin covers every healthy bank.
        for b in health.healthy_banks() {
            assert!(places.contains(&b));
        }
    }

    #[test]
    fn placement_fails_with_no_healthy_banks() {
        let mut health = BankHealth::all_healthy(4);
        for b in 0..4 {
            health.mark_dead(b);
        }
        assert_eq!(place_on_healthy(3, &health), None);
    }
}
