//! Property tests for the one placement decision (`DESIGN.md` §10): the
//! in-memory → near-memory → host ladder is monotone — degrading health
//! never *upgrades* the tier — a forced tier is clamped to what is
//! feasible, and at full health the tier is exactly Eq 2's verdict.

use infs_faults::BankHealth;
use infs_runtime::{place, HwConfig, Tier};
use infs_tdfg::OpProfile;
use proptest::prelude::*;

fn profile(elems: u64, ops: u64, lat: u64) -> OpProfile {
    OpProfile {
        max_domain_elems: elems,
        ops_per_elem: ops,
        total_elem_ops: elems.saturating_mul(ops),
        total_bit_serial_latency: lat,
        node_count: 8,
        moved_elems: 0,
        per_op: Vec::new(),
    }
}

/// Build a health mask over `n` banks from a kill bitmask.
fn mask(n: u32, kill: u64) -> BankHealth {
    let mut h = BankHealth::all_healthy(n);
    for b in 0..n.min(64) {
        if kill >> b & 1 == 1 {
            h.mark_dead(b);
        }
    }
    h
}

/// No forced tier, or one of the three.
const FORCED: [Option<Tier>; 4] = [
    None,
    Some(Tier::InMemory),
    Some(Tier::NearMemory),
    Some(Tier::Host),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Killing one more healthy bank never moves a region *up* the ladder,
    /// forced or not.
    #[test]
    fn prop_ladder_is_monotone(
        kill in 0u64..u64::MAX,
        extra in 0u32..64,
        elems_log in 10u32..26,
        ops in 1u64..8,
        lat in 0u64..5_000_000,
        jit in 0u64..100_000,
        forced in 0usize..4,
    ) {
        let hw = HwConfig::default();
        let p = profile(1u64 << elems_log, ops, lat);
        let before = mask(64, kill);
        let mut after = before.clone();
        after.mark_dead(extra);
        let forced = FORCED[forced];
        let t_before = place(&p, &hw, &before, Some(jit), forced).tier;
        let t_after = place(&p, &hw, &after, Some(jit), forced).tier;
        prop_assert!(
            t_after <= t_before,
            "killing bank {extra} upgraded {:?} -> {:?}", t_before, t_after
        );
    }

    /// With every bank healthy the tier is in-memory exactly when Eq 2's
    /// core side exceeds its in-memory side; with no live bank it is always
    /// the host, whatever is forced and whether or not there is a plan.
    #[test]
    fn prop_ladder_endpoints(
        elems_log in 10u32..26,
        ops in 1u64..8,
        lat in 0u64..5_000_000,
        jit in 0u64..100_000,
        forced in 0usize..4,
        planned in proptest::bool::ANY,
    ) {
        let hw = HwConfig::default();
        let p = profile(1u64 << elems_log, ops, lat);
        let full = place(&p, &hw, &BankHealth::all_healthy(64), Some(jit), None);
        let eq2 = full.eq2.expect("an unforced feasible entry evaluates Eq 2");
        prop_assert_eq!(full.tier == Tier::InMemory, eq2.core > eq2.in_memory);
        let dead = mask(64, u64::MAX);
        let plan = planned.then_some(jit);
        prop_assert_eq!(place(&p, &hw, &dead, plan, FORCED[forced]).tier, Tier::Host);
    }

    /// Forced in-memory without a feasible plan never runs in memory.
    #[test]
    fn prop_forced_in_memory_needs_a_plan(
        kill in 0u64..u64::MAX,
        elems_log in 10u32..26,
        lat in 0u64..5_000_000,
    ) {
        let hw = HwConfig::default();
        let p = profile(1u64 << elems_log, 3, lat);
        let placed = place(&p, &hw, &mask(64, kill), None, Some(Tier::InMemory));
        prop_assert_ne!(placed.tier, Tier::InMemory);
        prop_assert_eq!(placed.eq2, None);
    }

    /// A dead-bank mask can only *shrink* the set of regions that qualify
    /// for in-memory: anything in-memory under partial health is also
    /// in-memory under full health.
    #[test]
    fn prop_degraded_in_memory_implies_healthy_in_memory(
        kill in 0u64..u64::MAX,
        elems_log in 10u32..26,
        lat in 0u64..5_000_000,
    ) {
        let hw = HwConfig::default();
        let p = profile(1u64 << elems_log, 3, lat);
        let health = mask(64, kill);
        if place(&p, &hw, &health, Some(500), None).tier == Tier::InMemory {
            let full = BankHealth::all_healthy(64);
            prop_assert_eq!(place(&p, &hw, &full, Some(500), None).tier, Tier::InMemory);
        }
    }
}
