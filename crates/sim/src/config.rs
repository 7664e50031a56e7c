use infs_isa::SramGeometry;
use infs_runtime::{HwConfig, JitModel};
use serde::{Deserialize, Serialize};

/// Full system parameters (Table 2 of the paper as defaults).
///
/// All latencies are in core cycles at 2.0 GHz. The bit-serial op latencies
/// themselves come from [`infs_tdfg::bit_serial_latency`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Mesh width (8 → 64 tiles).
    pub mesh_w: u32,
    /// Mesh height.
    pub mesh_h: u32,
    /// Cores (one per tile).
    pub cores: u32,
    /// fp32 SIMD lanes per core per cycle (one 512-bit op).
    pub simd_lanes: u32,
    /// Core issue efficiency on streaming kernels (OOO stalls, sync).
    pub core_efficiency: f64,
    /// NoC link payload bytes per cycle.
    pub link_bytes_per_cycle: u32,
    /// Effective fraction of aggregate link bandwidth usable under X-Y routing.
    pub noc_efficiency: f64,
    /// L1+L2 private capacity per core, bytes (for the reuse filter).
    pub private_cache_bytes: u64,
    /// Shared L3 banks (one per tile).
    pub n_banks: u32,
    /// L3 ways per bank.
    pub ways: u32,
    /// Ways reserved for conventional caching during in-memory mode.
    pub reserved_ways: u32,
    /// SRAM arrays per way.
    pub arrays_per_way: u32,
    /// SRAM array geometry.
    pub geometry: SramGeometry,
    /// Cache line bytes.
    pub line_bytes: u32,
    /// L3 bank access bandwidth, bytes per cycle.
    pub bank_bytes_per_cycle: u32,
    /// H-tree bandwidth per SRAM array, bytes per cycle.
    pub htree_bytes_per_cycle_per_array: u32,
    /// Aggregate DRAM bandwidth, bytes per cycle (25.6 GB/s at 2 GHz → 12.8).
    pub dram_bytes_per_cycle: f64,
    /// DRAM access latency, cycles.
    pub dram_latency: u64,
    /// Parallel-region launch overhead on the cores (OpenMP fork/join +
    /// barrier), cycles — what makes fine-grained iterative phases like
    /// PointNet's furthest sampling expensive on Base (§8).
    pub core_region_overhead: u64,
    /// Outstanding L2 miss registers per core (bounds fill bandwidth).
    pub mshrs_per_core: u32,
    /// L2-miss round trip to an L3 bank, cycles.
    pub l3_roundtrip: u64,
    /// Stream-engine element throughput per bank per cycle (SE_L3).
    pub sel3_elems_per_cycle: f64,
    /// Stream-engine arithmetic throughput per bank per cycle.
    pub sel3_ops_per_cycle: f64,
    /// SE_L3 compute initiation latency, cycles (Table 2: 4).
    pub sel3_init_latency: u64,
    /// Offload configuration latency per region (inf_cfg → engines ready).
    pub offload_latency: u64,
    /// Sync-barrier base latency (§5.2 packet-count protocol round trip).
    pub sync_latency: u64,
    /// JIT cycle-model constants: the runtime's one cost table, handed to it
    /// unchanged by [`SystemConfig::hw`].
    pub jit: JitModel,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            mesh_w: 8,
            mesh_h: 8,
            cores: 64,
            simd_lanes: 16,
            core_efficiency: 0.7,
            link_bytes_per_cycle: 32,
            noc_efficiency: 0.55,
            private_cache_bytes: (32 + 256) * 1024,
            n_banks: 64,
            ways: 18,
            reserved_ways: 2,
            arrays_per_way: 16,
            geometry: SramGeometry::G256,
            line_bytes: 64,
            bank_bytes_per_cycle: 64,
            htree_bytes_per_cycle_per_array: 4,
            dram_bytes_per_cycle: 12.8,
            dram_latency: 300,
            core_region_overhead: 3_000,
            mshrs_per_core: 12,
            l3_roundtrip: 44,
            sel3_elems_per_cycle: 8.0,
            sel3_ops_per_cycle: 8.0,
            sel3_init_latency: 4,
            offload_latency: 500,
            sync_latency: 64,
            jit: JitModel::default(),
        }
    }
}

impl SystemConfig {
    /// Compute SRAM arrays per bank available to in-memory execution
    /// (16 usable ways × 16 arrays = 256 by default).
    pub fn compute_arrays_per_bank(&self) -> u32 {
        (self.ways - self.reserved_ways) * self.arrays_per_way
    }

    /// Total compute bitlines across the machine (4 Mi by default — "in total,
    /// it has 4M bitlines").
    pub fn total_bitlines(&self) -> u64 {
        self.n_banks as u64 * self.compute_arrays_per_bank() as u64 * self.geometry.bitlines as u64
    }

    /// Total L3 capacity in bytes (18 ways × 16 arrays × 8 kB × 64 banks =
    /// 144 MB by default).
    pub fn l3_bytes(&self) -> u64 {
        self.n_banks as u64
            * self.ways as u64
            * self.arrays_per_way as u64
            * self.geometry.size_bytes()
    }

    /// L3 bytes that can hold transposed data: the compute ways, i.e. the
    /// cache minus the ways reserved for normal traffic (§4) — 128 MB by
    /// default. Bounds the machine's residency ledger, and each pipeline
    /// stage's own working set.
    pub fn compute_capacity_bytes(&self) -> u64 {
        self.l3_bytes() / self.ways as u64 * (self.ways - self.reserved_ways) as u64
    }

    /// Peak int32 in-memory additions per cycle — Eq 1 of the paper:
    /// `N_bank × N_way × N_array/way × N_bitline / Latency` = 131072 with the
    /// Table 2 machine.
    pub fn eq1_peak_int32_adds_per_cycle(&self) -> u64 {
        self.total_bitlines() / 32
    }

    /// The runtime-facing view of the hardware.
    pub fn hw(&self) -> HwConfig {
        HwConfig {
            n_banks: self.n_banks,
            arrays_per_bank: self.compute_arrays_per_bank(),
            geometry: self.geometry,
            line_bytes: self.line_bytes,
            cores: self.cores,
            simd_lanes: self.simd_lanes,
            jit: self.jit,
        }
    }

    /// Directed mesh links (`2 directions × 2 axes × w×(h-1)`-ish).
    pub fn n_links(&self) -> u64 {
        let horizontal = (self.mesh_w - 1) as u64 * self.mesh_h as u64;
        let vertical = (self.mesh_h - 1) as u64 * self.mesh_w as u64;
        2 * (horizontal + vertical)
    }

    /// Aggregate effective NoC bandwidth, bytes per cycle.
    pub fn noc_aggregate_bw(&self) -> f64 {
        self.n_links() as f64 * self.link_bytes_per_cycle as f64 * self.noc_efficiency
    }

    /// Peak core-side fp32 ops per cycle across the whole machine.
    pub fn core_peak_ops(&self, threads: u32) -> f64 {
        threads.min(self.cores) as f64 * self.simd_lanes as f64 * self.core_efficiency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_derived_quantities() {
        let c = SystemConfig::default();
        assert_eq!(c.compute_arrays_per_bank(), 256);
        assert_eq!(c.total_bitlines(), 4 * 1024 * 1024);
        assert_eq!(c.l3_bytes(), 144 * 1024 * 1024);
        // Eq 1: 64 × 16 × 16 × 256 / 32 = 131072 int32 adds per cycle.
        assert_eq!(c.eq1_peak_int32_adds_per_cycle(), 131_072);
    }

    #[test]
    fn eq1_is_128x_over_cores() {
        let c = SystemConfig::default();
        let core_peak = c.cores as u64 * c.simd_lanes as u64; // 1024 ops/cycle
        assert_eq!(c.eq1_peak_int32_adds_per_cycle() / core_peak, 128);
    }

    #[test]
    fn hw_view_matches() {
        let c = SystemConfig::default();
        let hw = c.hw();
        assert_eq!(hw.total_bitlines(), c.total_bitlines());
        assert_eq!(hw.n_banks, 64);
    }

    #[test]
    fn mesh_links() {
        let c = SystemConfig::default();
        assert_eq!(c.n_links(), 2 * (7 * 8 + 7 * 8));
        assert!(c.noc_aggregate_bw() > 0.0);
    }
}
