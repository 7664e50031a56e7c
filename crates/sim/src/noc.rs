use crate::SystemConfig;
use serde::{Deserialize, Serialize};

/// The 8×8 mesh network-on-chip: X-Y routed, one L3 bank and one core per tile.
///
/// Traffic is accounted in *byte-hops* (a byte crossing one link), the unit of
/// Fig 12/13, and bulk-phase transfer time is estimated from aggregate
/// effective link bandwidth plus the worst single-flow serialization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mesh {
    w: u32,
    h: u32,
    link_bytes_per_cycle: u32,
    aggregate_bw: f64,
}

impl Mesh {
    /// Builds the mesh view of a system configuration.
    pub fn new(cfg: &SystemConfig) -> Self {
        Mesh {
            w: cfg.mesh_w,
            h: cfg.mesh_h,
            link_bytes_per_cycle: cfg.link_bytes_per_cycle,
            aggregate_bw: cfg.noc_aggregate_bw(),
        }
    }

    /// Tile coordinates of a bank/core id (row-major).
    pub fn coords(&self, id: u32) -> (u32, u32) {
        (id % self.w, id / self.w)
    }

    /// X-Y routing hop count between two tiles.
    pub fn hops(&self, a: u32, b: u32) -> u64 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as u64
    }

    /// Average hop count between uniformly random distinct tiles — the
    /// expected distance of NUCA-interleaved traffic (≈ 5.33 for 8×8).
    pub fn avg_hops(&self) -> f64 {
        // E|x1-x2| over uniform pairs on [0, w): (w^2 - 1) / (3w).
        let ex = |n: f64| (n * n - 1.0) / (3.0 * n);
        ex(self.w as f64) + ex(self.h as f64)
    }

    /// Time to drain a bulk phase of `byte_hops` total traffic whose largest
    /// single flow is `max_flow_bytes`: aggregate-bandwidth bound plus the
    /// serialization of the worst flow on one link.
    pub fn phase_cycles(&self, byte_hops: f64, max_flow_bytes: f64) -> u64 {
        let aggregate = byte_hops / self.aggregate_bw;
        let serial = max_flow_bytes / self.link_bytes_per_cycle as f64;
        (aggregate.max(serial)).ceil() as u64
    }

    /// Utilization of the mesh given total byte-hops over a window of cycles.
    pub fn utilization(&self, byte_hops: f64, cycles: u64) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        let capacity = self.aggregate_bw / 0.55_f64.max(1e-9); // raw links
        (byte_hops / (capacity * cycles as f64)).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(&SystemConfig::default())
    }

    #[test]
    fn hops_are_manhattan() {
        let m = mesh();
        assert_eq!(m.hops(0, 0), 0);
        assert_eq!(m.hops(0, 7), 7);
        assert_eq!(m.hops(0, 63), 14);
        assert_eq!(m.hops(9, 18), 2);
    }

    #[test]
    fn avg_hops_matches_closed_form() {
        let m = mesh();
        let brute: f64 = {
            let mut total = 0.0;
            for a in 0..64 {
                for b in 0..64 {
                    total += m.hops(a, b) as f64;
                }
            }
            total / (64.0 * 64.0)
        };
        assert!(
            (m.avg_hops() - brute).abs() < 1e-9,
            "{} vs {brute}",
            m.avg_hops()
        );
    }

    #[test]
    fn phase_time_respects_both_bounds() {
        let m = mesh();
        // Aggregate-bound: lots of spread traffic.
        let t1 = m.phase_cycles(1e6, 10.0);
        assert!(t1 as f64 >= 1e6 / m.aggregate_bw);
        // Serialization-bound: one huge flow.
        let t2 = m.phase_cycles(100.0, 32_000.0);
        assert_eq!(t2, 1000);
    }

    #[test]
    fn utilization_bounded() {
        let m = mesh();
        assert_eq!(m.utilization(0.0, 100), 0.0);
        assert!(m.utilization(1e12, 10) <= 1.0);
    }
}
