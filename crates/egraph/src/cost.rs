use crate::ENode;
use infs_geom::HyperRect;
use infs_sdfg::{DataType, ReduceOp};
use infs_tdfg::{bit_serial_latency, ComputeOp};

/// Architecture-informed cost parameters for tDFG extraction.
///
/// The paper selects the final tDFG with "cost metrics combining the estimated
/// latency of move vs. compute node, the amount of moved/broadcast data, as
/// well as the number of computations" (Appendix A). Compute cost is the
/// bit-serial command latency times the number of bitline rounds the domain
/// needs; movement cost scales with moved elements (broadcast cheaper than
/// shift, §4.1); shrink is free (lowered to a no-op).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CostParams {
    /// Total compute bitlines in the system (Table 2: 64 banks × 16 ways ×
    /// 16 arrays × 256 bitlines = 4 Mi bitlines).
    pub total_bitlines: u64,
    /// Fixed cycles per move command.
    pub mv_fixed: f64,
    /// Cycles per moved element (amortized over parallel lanes).
    pub mv_per_elem: f64,
    /// Fixed cycles per broadcast command.
    pub bc_fixed: f64,
    /// Cycles per broadcast element (cheaper than moves — the source row is
    /// read once and fanned out through the H-tree).
    pub bc_per_elem: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            total_bitlines: 64 * 16 * 16 * 256,
            mv_fixed: 64.0,
            mv_per_elem: 1.0 / 256.0, // one SRAM array's worth of lanes per cycle
            bc_fixed: 32.0,
            bc_per_elem: 1.0 / 1024.0,
        }
    }
}

impl CostParams {
    /// Cost of one e-node given its domain, excluding children.
    pub fn enode_cost(&self, n: &ENode, domain: Option<&HyperRect>, dtype: DataType) -> f64 {
        let elems = domain.map(HyperRect::num_elements).unwrap_or(0);
        let rounds = elems.div_ceil(self.total_bitlines).max(1) as f64;
        match n {
            ENode::Input { .. }
            | ENode::ConstVal { .. }
            | ENode::Param { .. }
            | ENode::StreamIn { .. }
            | ENode::Shrink { .. } => 0.0,
            ENode::Compute { op, .. } => bit_serial_latency(*op, dtype) as f64 * rounds,
            ENode::Mv { dist: 0, .. } => 0.0,
            ENode::Mv { .. } => self.mv_fixed + elems as f64 * self.mv_per_elem,
            ENode::Bc { .. } => self.bc_fixed + elems as f64 * self.bc_per_elem,
            ENode::Reduce { op, .. } => {
                // Rounds of compute+shift; extent unknown here without the input
                // domain, so charge a conservative single round per element bit.
                let eq = match op {
                    ReduceOp::Sum => ComputeOp::Add,
                    ReduceOp::Min => ComputeOp::Min,
                    ReduceOp::Max => ComputeOp::Max,
                };
                (bit_serial_latency(eq, dtype) + dtype.bits() as u64) as f64 * rounds
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EClassId, Operands};

    #[test]
    fn shrink_and_leaves_are_free() {
        let p = CostParams::default();
        let r = HyperRect::new(vec![(0, 8)]).unwrap();
        assert_eq!(
            p.enode_cost(
                &ENode::Shrink {
                    input: EClassId(0),
                    dim: 0,
                    p: 0,
                    q: 4
                },
                Some(&r),
                DataType::F32
            ),
            0.0
        );
        assert_eq!(
            p.enode_cost(&ENode::ConstVal { bits: 0 }, None, DataType::F32),
            0.0
        );
    }

    #[test]
    fn compute_scales_with_bitline_rounds() {
        let p = CostParams {
            total_bitlines: 16,
            ..Default::default()
        };
        let small = HyperRect::new(vec![(0, 16)]).unwrap();
        let big = HyperRect::new(vec![(0, 64)]).unwrap();
        let n = ENode::Compute {
            op: ComputeOp::Add,
            inputs: Operands::new(&[]),
        };
        let c_small = p.enode_cost(&n, Some(&small), DataType::F32);
        let c_big = p.enode_cost(&n, Some(&big), DataType::F32);
        assert_eq!(c_big, 4.0 * c_small);
    }

    #[test]
    fn zero_distance_move_is_free_and_bc_cheaper_than_mv() {
        let p = CostParams::default();
        let r = HyperRect::new(vec![(0, 1024)]).unwrap();
        let mv0 = ENode::Mv {
            input: EClassId(0),
            dim: 0,
            dist: 0,
        };
        let mv = ENode::Mv {
            input: EClassId(0),
            dim: 0,
            dist: 3,
        };
        let bc = ENode::Bc {
            input: EClassId(0),
            dim: 0,
            dist: 0,
            count: 1024,
        };
        assert_eq!(p.enode_cost(&mv0, Some(&r), DataType::F32), 0.0);
        assert!(
            p.enode_cost(&bc, Some(&r), DataType::F32) < p.enode_cost(&mv, Some(&r), DataType::F32)
        );
    }
}
