use crate::HwConfig;
use infs_tdfg::OpProfile;
use serde::{Deserialize, Serialize};

/// Where the runtime decides to execute a region (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Paradigm {
    /// Offload the tDFG to the compute SRAM arrays (bit-serial in-memory).
    InMemory,
    /// Offload the sDFG to the L3 stream engines (near-memory).
    NearMemory,
}

/// The Eq 2 in-/near-memory decision:
///
/// ```text
/// N_elem × N_op / TP_core  >  Σᵢ Lat_opᵢ + N_node × Lat_JIT
/// ```
///
/// The left side models a core executing every element operation at peak
/// throughput; the right side is the in-memory latency — independent of
/// `N_elem` because computation is fully parallel across bitlines — plus the
/// JIT lowering time. The compiler's aggregate [`OpProfile`] hints make this a
/// constant-time check, "a basic and conservative heuristic (assuming peak core
/// performance), but sufficient for the studied workloads".
///
/// `expected_jit_cycles` is the memoization-aware lowering estimate:
/// [`HwConfig::jit_cycles`] of the outcome the JIT cache anticipates.
pub fn decide(profile: &OpProfile, hw: &HwConfig, expected_jit_cycles: u64) -> Paradigm {
    if profile.max_domain_elems == 0 {
        return Paradigm::NearMemory;
    }
    // TP_core is the offloading core's own peak (the paper offloads from a
    // single-thread scalar version, §7): one 512-bit vector per cycle.
    let lhs = profile
        .max_domain_elems
        .saturating_mul(profile.ops_per_elem)
        / (hw.simd_lanes as u64).max(1);
    // Fixed offload overhead: configuration, way reservation and the final
    // sync barrier — keeps tiny regions (small MLP layers, Fig 19) off the
    // bitlines even when commands are precompiled.
    const OFFLOAD_OVERHEAD: u64 = 2_000;
    let rhs = profile.total_bit_serial_latency + expected_jit_cycles + OFFLOAD_OVERHEAD;
    if lhs > rhs {
        Paradigm::InMemory
    } else {
        Paradigm::NearMemory
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(elems: u64, ops: u64, lat: u64, nodes: u64) -> OpProfile {
        OpProfile {
            max_domain_elems: elems,
            ops_per_elem: ops,
            total_elem_ops: elems * ops,
            total_bit_serial_latency: lat,
            node_count: nodes,
            moved_elems: 0,
            per_op: Vec::new(),
        }
    }

    #[test]
    fn large_inputs_go_in_memory() {
        let hw = HwConfig::default();
        // 4M elements, 3 ops each: core side ~12k cycles vs ~1k bit-serial.
        let p = profile(4 << 20, 3, 1_000, 8);
        assert_eq!(decide(&p, &hw, 10_000), Paradigm::InMemory);
    }

    #[test]
    fn small_inputs_stay_near_memory() {
        let hw = HwConfig::default();
        // 16k elements: core finishes in ~48 cycles; bit-serial alone is ~1k.
        let p = profile(16 << 10, 3, 1_000, 8);
        assert_eq!(decide(&p, &hw, 10_000), Paradigm::NearMemory);
    }

    #[test]
    fn jit_cost_can_flip_the_decision() {
        let hw = HwConfig::default();
        let p = profile(1 << 20, 2, 1_000, 8);
        // LHS = 2M/1024 = 2048.
        assert_eq!(decide(&p, &hw, 500), Paradigm::InMemory);
        assert_eq!(decide(&p, &hw, 2_000_000), Paradigm::NearMemory);
    }

    #[test]
    fn empty_profile_is_near_memory() {
        let hw = HwConfig::default();
        assert_eq!(decide(&OpProfile::default(), &hw, 0), Paradigm::NearMemory);
    }
}
