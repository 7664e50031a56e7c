use crate::JitOutcome;
use infs_isa::SramGeometry;
use serde::{Deserialize, Serialize};

/// Hardware parameters the runtime needs to plan layouts, lower commands and
/// make the offload decision. The full machine model (`infs-sim`) derives its
/// runtime view from the same numbers (Table 2 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HwConfig {
    /// Shared L3 banks (one per tile of the mesh; 64 in Table 2).
    pub n_banks: u32,
    /// Compute SRAM arrays per bank available to in-memory computing
    /// (16 ways × 16 arrays/way = 256 in Table 2, with 2 of 18 ways reserved
    /// for conventional caching).
    pub arrays_per_bank: u32,
    /// SRAM array geometry.
    pub geometry: SramGeometry,
    /// Cache line size in bytes.
    pub line_bytes: u32,
    /// Cores (for the Eq 2 core-side throughput estimate).
    pub cores: u32,
    /// fp32 lanes per core per cycle (one 512-bit vector op → 16).
    pub simd_lanes: u32,
    /// The JIT cycle model ([`HwConfig::jit_cycles`] prices it).
    pub jit: JitModel,
}

/// The JIT cycle-model constants — the one cost table every JIT charge and
/// estimate reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JitModel {
    /// Fixed cycles per lowering invocation.
    pub base: u64,
    /// Cycles per generated command (steps 1–2).
    pub per_cmd: u64,
    /// Cycles per command *per bank* (step 3, the `O(N_bank×N_cmd)` mapping
    /// loop the paper identifies as the most expensive).
    pub per_cmd_bank: u64,
    /// Cycles charged on a JIT-cache hit.
    pub hit: u64,
    /// Cycles to copy-and-patch one command's offset/extent slots when a
    /// relocatable template serves the request (template hit, or a command
    /// whose emission class was already materialized earlier in the same
    /// stream). Orders of magnitude below `per_cmd` because no decomposition
    /// or scheduling re-runs.
    pub patch_per_cmd: u64,
}

impl Default for JitModel {
    fn default() -> Self {
        JitModel {
            base: 2_000,
            per_cmd: 60,
            per_cmd_bank: 2,
            hit: 500,
            patch_per_cmd: 2,
        }
    }
}

impl Default for HwConfig {
    fn default() -> Self {
        HwConfig {
            n_banks: 64,
            arrays_per_bank: 256,
            geometry: SramGeometry::G256,
            line_bytes: 64,
            cores: 64,
            simd_lanes: 16,
            jit: JitModel::default(),
        }
    }
}

impl HwConfig {
    /// Total compute bitlines (`N_bank × N_array/bank × N_bitline`); 4 Mi with
    /// Table 2 defaults — "in total, it has 4M bitlines".
    pub fn total_bitlines(&self) -> u64 {
        self.n_banks as u64 * self.arrays_per_bank as u64 * self.geometry.bitlines as u64
    }

    /// Peak core-side throughput in element ops per cycle (`TP_core` of Eq 2).
    pub fn core_peak_ops_per_cycle(&self) -> u64 {
        self.cores as u64 * self.simd_lanes as u64
    }

    /// The JIT cycle model: what one region entry's JIT step costs when the
    /// cache resolves it as `outcome` for a stream of `n_cmds` commands.
    ///
    /// - A concrete hit pays the lookup, `jit.hit`.
    /// - A template hit pays the lookup plus one slot patch per command.
    /// - A miss lowers in full: `jit.base`, the per-command rate for the
    ///   commands that materialize a new emission class, the patch rate for
    ///   the `from_template` commands stamped out of a class already
    ///   materialized earlier in the same stream (e.g. the per-piece copies
    ///   of one decomposed compute node), and the `O(N_bank×N_cmd)`
    ///   bank-mapping loop for every command — cold streams have no bank
    ///   structure to reuse. `from_template` is ignored on hits.
    pub fn jit_cycles(&self, outcome: JitOutcome, n_cmds: u64, from_template: u64) -> u64 {
        let m = &self.jit;
        match outcome {
            JitOutcome::ConcreteHit => m.hit,
            JitOutcome::TemplateHit => m.hit + m.patch_per_cmd * n_cmds,
            JitOutcome::Miss => {
                let fresh = n_cmds.saturating_sub(from_template);
                m.base
                    + m.per_cmd * fresh
                    + m.patch_per_cmd * from_template.min(n_cmds)
                    + m.per_cmd_bank * n_cmds * self.n_banks as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_totals() {
        let hw = HwConfig::default();
        assert_eq!(hw.total_bitlines(), 4 * 1024 * 1024);
        assert_eq!(hw.core_peak_ops_per_cycle(), 1024);
    }

    #[test]
    fn jit_model_scales_with_banks() {
        let hw = HwConfig::default();
        let half = HwConfig { n_banks: 32, ..hw };
        let miss = |hw: &HwConfig| hw.jit_cycles(JitOutcome::Miss, 100, 0);
        assert!(miss(&hw) > miss(&half));
    }

    #[test]
    fn templated_commands_are_cheaper_than_fresh_ones() {
        let hw = HwConfig::default();
        let miss = |from_template| hw.jit_cycles(JitOutcome::Miss, 100, from_template);
        assert!(miss(60) < miss(0));
        // from_template can never push the cost below base + bank mapping.
        let floor = hw.jit.base + hw.jit.per_cmd_bank * 100 * hw.n_banks as u64;
        assert!(miss(100) >= floor);
    }

    #[test]
    fn patch_is_orders_cheaper_than_lowering() {
        let hw = HwConfig::default();
        let patch = hw.jit_cycles(JitOutcome::TemplateHit, 100, 0);
        assert!(patch * 10 < hw.jit_cycles(JitOutcome::Miss, 100, 0));
        assert!(hw.jit_cycles(JitOutcome::ConcreteHit, 100, 0) < patch);
    }
}
