use crate::EClassId;
use infs_geom::HyperRect;
use infs_sdfg::{ArrayId, ReduceOp, StreamId};
use infs_tdfg::ComputeOp;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// The operand classes of a compute node, stored inline.
///
/// Rules clone, hash and compare e-nodes millions of times per compile, so
/// operands live in a fixed array instead of a heap-allocated `Vec`. Unused
/// entries stay `EClassId(0)`, so the derived `Eq` compares operand slices,
/// and `Hash` can feed the whole array to the hasher in one write.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Operands {
    len: u8,
    ids: [EClassId; Operands::CAPACITY],
}

impl Operands {
    /// The widest compute operation's arity (`Select`).
    pub const CAPACITY: usize = 3;

    /// Operands copied from a slice.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is longer than [`CAPACITY`](Self::CAPACITY).
    pub fn new(ids: &[EClassId]) -> Self {
        ids.iter().copied().collect()
    }
}

impl Deref for Operands {
    type Target = [EClassId];

    fn deref(&self) -> &[EClassId] {
        &self.ids[..self.len as usize]
    }
}

impl DerefMut for Operands {
    fn deref_mut(&mut self) -> &mut [EClassId] {
        &mut self.ids[..self.len as usize]
    }
}

impl FromIterator<EClassId> for Operands {
    fn from_iter<I: IntoIterator<Item = EClassId>>(iter: I) -> Self {
        let mut out = Operands {
            len: 0,
            ids: [EClassId(0); Operands::CAPACITY],
        };
        for id in iter {
            assert!(
                (out.len as usize) < Operands::CAPACITY,
                "a compute node takes at most {} operands",
                Operands::CAPACITY
            );
            out.ids[out.len as usize] = id;
            out.len += 1;
        }
        out
    }
}

impl<const N: usize> From<[EClassId; N]> for Operands {
    fn from(ids: [EClassId; N]) -> Self {
        Operands::new(&ids)
    }
}

impl Hash for Operands {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let [a, b, c] = self.ids.map(|id| u128::from(id.0));
        state.write_u128(a | b << 32 | c << 64 | u128::from(self.len) << 96);
    }
}

impl fmt::Debug for Operands {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// An e-graph node: structurally identical to [`infs_tdfg::Node`] but with
/// children referring to e-classes instead of SSA ids, and the constant value
/// stored as raw bits so the node is `Eq + Hash` for hash-consing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ENode {
    /// Array region tensor (leaf).
    Input {
        /// Source array.
        array: ArrayId,
        /// Lattice domain.
        rect: HyperRect,
        /// Lattice→array coordinate offset.
        array_offset: Vec<i64>,
    },
    /// Compile-time constant (leaf); `bits` is the `f32` bit pattern.
    ConstVal {
        /// `f32::to_bits` of the constant.
        bits: u32,
    },
    /// Runtime parameter (leaf).
    Param {
        /// Parameter index.
        index: u32,
    },
    /// Element-wise compute.
    Compute {
        /// Operation.
        op: ComputeOp,
        /// Operand e-classes.
        inputs: Operands,
    },
    /// Shift along a dimension.
    Mv {
        /// Operand e-class.
        input: EClassId,
        /// Shifted dimension.
        dim: usize,
        /// Distance.
        dist: i64,
    },
    /// Broadcast along a dimension.
    Bc {
        /// Operand e-class.
        input: EClassId,
        /// Broadcast dimension.
        dim: usize,
        /// First destination coordinate.
        dist: i64,
        /// Copy count.
        count: u64,
    },
    /// Domain restriction (no-op at lowering).
    Shrink {
        /// Operand e-class.
        input: EClassId,
        /// Restricted dimension.
        dim: usize,
        /// New start.
        p: i64,
        /// New end.
        q: i64,
    },
    /// Reduction along a dimension (opaque to rewrites).
    Reduce {
        /// Operand e-class.
        input: EClassId,
        /// Reduced dimension.
        dim: usize,
        /// Operator.
        op: ReduceOp,
    },
    /// Stream-produced tensor (leaf, opaque).
    StreamIn {
        /// Producing stream.
        stream: StreamId,
        /// Domain.
        rect: HyperRect,
    },
}

impl ENode {
    /// Child e-classes, in operand order.
    pub fn children(&self) -> &[EClassId] {
        match self {
            ENode::Input { .. }
            | ENode::ConstVal { .. }
            | ENode::Param { .. }
            | ENode::StreamIn { .. } => &[],
            ENode::Compute { inputs, .. } => inputs,
            ENode::Mv { input, .. }
            | ENode::Bc { input, .. }
            | ENode::Shrink { input, .. }
            | ENode::Reduce { input, .. } => std::slice::from_ref(input),
        }
    }

    /// Rewrites every child through `f` in place; returns whether any child
    /// changed.
    pub fn canonicalize(&mut self, mut f: impl FnMut(EClassId) -> EClassId) -> bool {
        let children: &mut [EClassId] = match self {
            ENode::Compute { inputs, .. } => inputs,
            ENode::Mv { input, .. }
            | ENode::Bc { input, .. }
            | ENode::Shrink { input, .. }
            | ENode::Reduce { input, .. } => std::slice::from_mut(input),
            _ => &mut [],
        };
        let mut changed = false;
        for c in children {
            let to = f(*c);
            changed |= to != *c;
            *c = to;
        }
        changed
    }

    /// The same node with children rewritten through `f` (canonicalization).
    pub fn map_children(&self, f: impl FnMut(EClassId) -> EClassId) -> ENode {
        let mut n = self.clone();
        n.canonicalize(f);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_capacity_is_the_widest_arity() {
        let widest = ComputeOp::ALL.iter().map(|op| op.arity()).max();
        assert_eq!(widest, Some(Operands::CAPACITY));
    }

    #[test]
    #[should_panic(expected = "at most 3 operands")]
    fn operands_refuse_a_fourth() {
        Operands::new(&[EClassId(0); 4]);
    }

    #[test]
    fn canonicalize_reports_a_change() {
        let mut n = ENode::Compute {
            op: ComputeOp::Add,
            inputs: [EClassId(1), EClassId(2)].into(),
        };
        assert!(!n.canonicalize(|x| x));
        assert!(n.canonicalize(|x| EClassId(x.0.min(1))));
        assert_eq!(n.children(), [EClassId(1), EClassId(1)]);
    }
}
