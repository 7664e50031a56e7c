use crate::{fmax, fmin, StreamId};
use serde::{Deserialize, Serialize};

/// Index of an expression within a graph's expression pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ExprId(pub u32);

/// Binary operators available to near-stream computation.
///
/// Near-stream computations are compiled to conventional functions in the
/// native ISA (§3.4); this enum is the interpreted stand-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// `1.0` if `a < b` else `0.0`.
    Lt,
}

impl BinOp {
    /// Applies the operator.
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Min => fmin(a, b),
            BinOp::Max => fmax(a, b),
            BinOp::Lt => {
                if a < b {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// Unary operators available to near-stream computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// Negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Square root.
    Sqrt,
    /// Rectified linear unit `max(x, 0)`.
    Relu,
}

impl UnOp {
    /// Applies the operator.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            UnOp::Neg => -x,
            UnOp::Abs => x.abs(),
            UnOp::Sqrt => x.sqrt(),
            UnOp::Relu => fmax(x, 0.0),
        }
    }
}

/// A near-stream computation expression, evaluated once per loop iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StreamExpr {
    /// The element the given (load) stream produced this iteration.
    StreamVal(StreamId),
    /// A compile-time constant.
    Const(f32),
    /// A runtime parameter passed via `inf_cfg` (§3.4), by index.
    Param(u32),
    /// The current value of loop induction variable `k` (as `f32`).
    LoopVar(u32),
    /// A binary operation.
    Bin(BinOp, ExprId, ExprId),
    /// A unary operation.
    Un(UnOp, ExprId),
    /// `if cond != 0 { then } else { otherwise }`.
    Select(ExprId, ExprId, ExprId),
}

#[allow(clippy::should_implement_trait)] // add/sub/mul are constructors, not operators
impl StreamExpr {
    /// Convenience constructor for an addition.
    pub fn add(a: ExprId, b: ExprId) -> Self {
        StreamExpr::Bin(BinOp::Add, a, b)
    }

    /// Convenience constructor for a subtraction.
    pub fn sub(a: ExprId, b: ExprId) -> Self {
        StreamExpr::Bin(BinOp::Sub, a, b)
    }

    /// Convenience constructor for a multiplication.
    pub fn mul(a: ExprId, b: ExprId) -> Self {
        StreamExpr::Bin(BinOp::Mul, a, b)
    }

    /// Expression ids this expression reads.
    pub fn children(&self) -> Vec<ExprId> {
        match self {
            StreamExpr::StreamVal(_)
            | StreamExpr::Const(_)
            | StreamExpr::Param(_)
            | StreamExpr::LoopVar(_) => Vec::new(),
            StreamExpr::Bin(_, a, b) => vec![*a, *b],
            StreamExpr::Un(_, a) => vec![*a],
            StreamExpr::Select(c, t, e) => vec![*c, *t, *e],
        }
    }

    /// Number of arithmetic operations this expression node performs (leaves
    /// are free) — used by the compute-op accounting that feeds the offload
    /// decision model (Eq 2).
    pub fn op_count(&self) -> u64 {
        match self {
            StreamExpr::StreamVal(_)
            | StreamExpr::Const(_)
            | StreamExpr::Param(_)
            | StreamExpr::LoopVar(_) => 0,
            StreamExpr::Bin(..) | StreamExpr::Un(..) | StreamExpr::Select(..) => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binops_evaluate() {
        assert_eq!(BinOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(BinOp::Sub.apply(2.0, 3.0), -1.0);
        assert_eq!(BinOp::Mul.apply(2.0, 3.0), 6.0);
        assert_eq!(BinOp::Div.apply(3.0, 2.0), 1.5);
        assert_eq!(BinOp::Min.apply(2.0, 3.0), 2.0);
        assert_eq!(BinOp::Max.apply(2.0, 3.0), 3.0);
        assert_eq!(BinOp::Lt.apply(2.0, 3.0), 1.0);
        assert_eq!(BinOp::Lt.apply(3.0, 2.0), 0.0);
    }

    #[test]
    fn unops_evaluate() {
        assert_eq!(UnOp::Neg.apply(2.0), -2.0);
        assert_eq!(UnOp::Abs.apply(-2.0), 2.0);
        assert_eq!(UnOp::Sqrt.apply(9.0), 3.0);
        assert_eq!(UnOp::Relu.apply(-1.0), 0.0);
        assert_eq!(UnOp::Relu.apply(1.5), 1.5);
    }

    #[test]
    fn children_and_op_counts() {
        let e = StreamExpr::Select(ExprId(0), ExprId(1), ExprId(2));
        assert_eq!(e.children().len(), 3);
        assert_eq!(e.op_count(), 1);
        assert_eq!(StreamExpr::Const(1.0).op_count(), 0);
    }
}
