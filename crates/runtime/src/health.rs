//! Where a region runs: the one placement decision.
//!
//! [`place`] owns every rule that puts a region on a [`Tier`] at `inf_cfg`
//! (§4.3): the Eq 2 in-/near-memory inequality, the degradation ladder a
//! bank-health mask adds to it (`DESIGN.md` §10), and the clamping of a
//! forced tier to what the machine can honour. Nothing else evaluates
//! Eq 2.

use crate::HwConfig;
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

/// The two sides of Eq 2 in cycles, as [`place`] compared them: the region
/// goes in-memory exactly when `core > in_memory`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eq2Terms {
    /// `N_elem × N_op / TP_core`: one core executing every element
    /// operation at peak throughput.
    pub core: u64,
    /// `Σᵢ Lat_opᵢ × n_banks / healthy + Lat_JIT` plus the fixed offload
    /// overhead.
    pub in_memory: u64,
}

/// Where [`place`] puts a region, and the Eq 2 terms behind it when Eq 2
/// decided (`None` when a rule above it did).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The tier the region runs on.
    pub tier: Tier,
    /// The inequality's two sides, when it was evaluated.
    pub eq2: Option<Eq2Terms>,
}

impl From<Tier> for Placement {
    /// A placement no Eq 2 evaluation decided.
    fn from(tier: Tier) -> Self {
        Placement { tier, eq2: None }
    }
}

/// Fixed offload overhead: configuration, way reservation and the final
/// sync barrier — keeps tiny regions (small MLP layers, Fig 19) off the
/// bitlines even when commands are precompiled.
const OFFLOAD_OVERHEAD: u64 = 2_000;

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

/// The placement of one region entry. `in_memory` is `None` when the
/// region has no feasible in-memory plan, else the plan's expected JIT
/// cycles ([`HwConfig::jit_cycles`] of the outcome the JIT cache
/// anticipates; only Eq 2 reads it). The rules, first match wins:
///
/// 1. No live bank → [`Tier::Host`]: the stream engines live at the banks
///    too.
/// 2. A `forced` tier is clamped to what is feasible: in-memory needs a
///    plan and the [`in_memory_quorum`], else near-memory; near-memory and
///    host are honoured.
/// 3. No plan or no quorum → [`Tier::NearMemory`].
/// 4. Eq 2:
///
///    ```text
///    N_elem × N_op / TP_core  >  Σᵢ Lat_opᵢ × n_banks / healthy + Lat_JIT + overhead
///    ```
///
///    The left side models a core executing every element operation at
///    peak throughput — the offloading core's own, one 512-bit vector per
///    cycle (the paper offloads from a single-thread scalar version, §7).
///    The right side is the in-memory latency — independent of `N_elem`
///    because computation is fully parallel across bitlines — scaled by
///    `n_banks / healthy` because dead banks' tiles fold onto survivors
///    and serialize their bit-serial work, plus the JIT lowering time. The
///    compiler's aggregate [`OpProfile`] hints make this a constant-time
///    check, "a basic and conservative heuristic (assuming peak core
///    performance), but sufficient for the studied workloads".
///
/// The scale factor only grows as banks die, so losing banks can only move
/// a region *down* the ladder, never up.
pub fn place(
    profile: &OpProfile,
    hw: &HwConfig,
    health: &BankHealth,
    in_memory: Option<u64>,
    forced: Option<Tier>,
) -> Placement {
    let healthy = u64::from(health.healthy_count());
    match (forced, in_memory.filter(|_| in_memory_quorum(health))) {
        _ if healthy == 0 => Tier::Host.into(),
        (Some(Tier::Host), _) => Tier::Host.into(),
        (Some(Tier::InMemory), Some(_)) => Tier::InMemory.into(),
        (Some(_), _) | (None, None) => Tier::NearMemory.into(),
        (None, Some(jit_cycles)) => {
            let bit_serial = profile
                .total_bit_serial_latency
                .saturating_mul(u64::from(health.n_banks()))
                .div_ceil(healthy);
            let eq2 = Eq2Terms {
                core: profile
                    .max_domain_elems
                    .saturating_mul(profile.ops_per_elem)
                    / u64::from(hw.simd_lanes.max(1)),
                in_memory: bit_serial + jit_cycles + OFFLOAD_OVERHEAD,
            };
            Placement {
                tier: if eq2.core > eq2.in_memory {
                    Tier::InMemory
                } else {
                    Tier::NearMemory
                },
                eq2: Some(eq2),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(elems: u64, ops: u64, lat: u64) -> OpProfile {
        OpProfile {
            max_domain_elems: elems,
            ops_per_elem: ops,
            total_elem_ops: elems * ops,
            total_bit_serial_latency: lat,
            node_count: 8,
            moved_elems: 0,
            per_op: Vec::new(),
        }
    }

    /// The unforced tier at full health with a feasible plan costing `jit`.
    fn healthy_tier(p: &OpProfile, jit: u64) -> Tier {
        let hw = HwConfig::default();
        let health = BankHealth::all_healthy(hw.n_banks);
        place(p, &hw, &health, Some(jit), None).tier
    }

    #[test]
    fn tier_order_matches_availability() {
        assert!(Tier::Host < Tier::NearMemory);
        assert!(Tier::NearMemory < Tier::InMemory);
    }

    #[test]
    fn large_inputs_go_in_memory() {
        // 4M elements, 3 ops each: core side 786 432 cycles vs 13 000.
        assert_eq!(
            healthy_tier(&profile(4 << 20, 3, 1_000), 10_000),
            Tier::InMemory
        );
    }

    #[test]
    fn small_inputs_stay_near_memory() {
        // 16k elements: core side 3 072 cycles vs 13 000.
        assert_eq!(
            healthy_tier(&profile(16 << 10, 3, 1_000), 10_000),
            Tier::NearMemory
        );
    }

    #[test]
    fn jit_cost_can_flip_the_decision() {
        let p = profile(1 << 20, 2, 1_000);
        // LHS = 2M/16 = 131 072.
        assert_eq!(healthy_tier(&p, 500), Tier::InMemory);
        assert_eq!(healthy_tier(&p, 2_000_000), Tier::NearMemory);
    }

    #[test]
    fn empty_profile_is_near_memory() {
        assert_eq!(healthy_tier(&OpProfile::default(), 0), Tier::NearMemory);
    }

    #[test]
    fn full_health_matches_plain_decide() {
        // At full health Eq 2 compares the unscaled sums.
        let hw = HwConfig::default();
        let health = BankHealth::all_healthy(hw.n_banks);
        let big = place(&profile(4 << 20, 3, 1_000), &hw, &health, Some(500), None);
        let terms = Eq2Terms {
            core: (4 << 20) * 3 / 16,
            in_memory: 1_000 + 500 + OFFLOAD_OVERHEAD,
        };
        assert_eq!(
            big,
            Placement {
                tier: Tier::InMemory,
                eq2: Some(terms)
            }
        );
        assert_eq!(
            healthy_tier(&profile(16 << 10, 3, 1_000), 500),
            Tier::NearMemory
        );
    }

    #[test]
    fn dead_banks_push_down_the_ladder() {
        let hw = HwConfig::default();
        // Barely in-memory at full health: lhs = 3·2²¹/16 ≈ 393k core
        // cycles vs 300k bit-serial + overheads.
        let p = profile(1 << 21, 3, 300_000);
        let tier = |health: &BankHealth| place(&p, &hw, health, Some(500), None).tier;
        let mut health = BankHealth::all_healthy(hw.n_banks);
        assert_eq!(tier(&health), Tier::InMemory);
        // Halve the banks: scaled latency doubles and flips the decision.
        for b in 0..hw.n_banks / 2 {
            health.mark_dead(b);
        }
        assert_eq!(tier(&health), Tier::NearMemory);
        // Kill the rest: even near-memory is gone.
        for b in 0..hw.n_banks {
            health.mark_dead(b);
        }
        assert_eq!(tier(&health), Tier::Host);
    }

    #[test]
    fn below_quorum_never_in_memory() {
        let hw = HwConfig::default();
        let p = profile(u64::MAX / 8, 1, 1); // would trivially win Eq 2
        let mut health = BankHealth::all_healthy(hw.n_banks);
        for b in 0..hw.n_banks / 2 + 1 {
            health.mark_dead(b);
        }
        assert!(!in_memory_quorum(&health));
        for forced in [None, Some(Tier::InMemory)] {
            let placed = place(&p, &hw, &health, Some(0), forced);
            assert_eq!(placed, Tier::NearMemory.into(), "{forced:?}");
        }
    }

    #[test]
    fn forced_tiers_clamp_to_what_is_feasible() {
        let hw = HwConfig::default();
        let health = BankHealth::all_healthy(hw.n_banks);
        // Eq 2 alone would pick near-memory for this one.
        let p = profile(16 << 10, 3, 1_000);
        let placed = |plan, forced| place(&p, &hw, &health, plan, Some(forced));
        assert_eq!(placed(Some(0), Tier::InMemory), Tier::InMemory.into());
        assert_eq!(placed(None, Tier::InMemory), Tier::NearMemory.into());
        assert_eq!(placed(Some(0), Tier::NearMemory), Tier::NearMemory.into());
        assert_eq!(placed(Some(0), Tier::Host), Tier::Host.into());
    }

    #[test]
    fn placement_fails_with_no_healthy_banks() {
        let hw = HwConfig::default();
        let mut health = BankHealth::all_healthy(hw.n_banks);
        for b in 0..hw.n_banks {
            health.mark_dead(b);
        }
        let p = profile(4 << 20, 3, 1_000);
        for plan in [None, Some(0)] {
            for forced in [None, Some(Tier::InMemory), Some(Tier::NearMemory)] {
                let placed = place(&p, &hw, &health, plan, forced);
                assert_eq!(placed, Tier::Host.into(), "{plan:?} {forced:?}");
            }
        }
    }
}
