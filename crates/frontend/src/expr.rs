use crate::kernel::{LoopVar, SymVar};
use infs_sdfg::{ArrayId, ReduceOp};
use infs_tdfg::ComputeOp;
use serde::{Deserialize, Serialize};

/// An affine index expression: `offset + Σ cⱼ·loopⱼ + Σ dₛ·symₛ`.
///
/// Loop terms reference the kernel's parallel loops; symbol terms reference the
/// integer symbols bound at instantiation time (sequential host loops, sizes).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Idx {
    /// Constant offset.
    pub offset: i64,
    /// `(loop index, coefficient)` terms.
    pub loop_coeffs: Vec<(usize, i64)>,
    /// `(symbol index, coefficient)` terms.
    pub sym_coeffs: Vec<(usize, i64)>,
}

impl Idx {
    /// The constant index `c`.
    pub fn constant(c: i64) -> Self {
        Idx {
            offset: c,
            loop_coeffs: Vec::new(),
            sym_coeffs: Vec::new(),
        }
    }

    /// The index `v` for a loop variable.
    pub fn var(v: LoopVar) -> Self {
        Idx::var_plus(v, 0)
    }

    /// The index `v + c`.
    pub fn var_plus(v: LoopVar, c: i64) -> Self {
        Idx {
            offset: c,
            loop_coeffs: vec![(v.0, 1)],
            sym_coeffs: Vec::new(),
        }
    }

    /// The index `s` for a symbol.
    pub fn sym(s: SymVar) -> Self {
        Idx::sym_plus(s, 0)
    }

    /// The index `s + c`.
    pub fn sym_plus(s: SymVar, c: i64) -> Self {
        Idx {
            offset: c,
            loop_coeffs: Vec::new(),
            sym_coeffs: vec![(s.0, 1)],
        }
    }

    /// Adds a scaled loop-variable term.
    pub fn plus_var(mut self, v: LoopVar, coeff: i64) -> Self {
        self.loop_coeffs.push((v.0, coeff));
        self
    }

    /// Adds a scaled symbol term.
    pub fn plus_sym(mut self, s: SymVar, coeff: i64) -> Self {
        self.sym_coeffs.push((s.0, coeff));
        self
    }

    /// Folds the symbol terms away given bound symbol values.
    ///
    /// Returns `(constant offset, dense per-loop coefficients)`.
    pub fn fold_syms(&self, nloops: usize, syms: &[i64]) -> Option<(i64, Vec<i64>)> {
        let mut offset = self.offset;
        for &(s, c) in &self.sym_coeffs {
            offset += c * *syms.get(s)?;
        }
        let mut coeffs = vec![0i64; nloops];
        for &(l, c) in &self.loop_coeffs {
            if l >= nloops {
                return None;
            }
            coeffs[l] += c;
        }
        Some((offset, coeffs))
    }

    /// Highest loop index referenced, if any.
    pub fn max_loop(&self) -> Option<usize> {
        self.loop_coeffs.iter().map(|&(l, _)| l).max()
    }

    /// Highest symbol index referenced, if any.
    pub fn max_sym(&self) -> Option<usize> {
        self.sym_coeffs.iter().map(|&(s, _)| s).max()
    }
}

/// A scalar-valued expression evaluated at each iteration point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScalarExpr {
    /// `array[idx…]` — an affine load.
    Load {
        /// Source array.
        array: ArrayId,
        /// One index per array dimension, innermost first.
        idx: Vec<Idx>,
    },
    /// `array[…][index][…]` — a one-level indirect load/address: dimension
    /// `dim`'s coordinate comes from evaluating `index` (which must itself be
    /// an affine load when streamized). Only expressible near-memory.
    LoadIndirect {
        /// Source array.
        array: ArrayId,
        /// The indirectly-addressed dimension.
        dim: usize,
        /// Expression producing the coordinate.
        index: Box<ScalarExpr>,
        /// Affine indices for the remaining dimensions (entry `dim` ignored).
        rest: Vec<Idx>,
    },
    /// A compile-time constant.
    Const(f32),
    /// A runtime `f32` parameter (passed per region entry, like `inf_cfg`).
    Param(u32),
    /// The current value of a parallel loop variable, as `f32`.
    LoopVal(LoopVar),
    /// An arithmetic operation.
    Op {
        /// Operation.
        op: ComputeOp,
        /// Operands (`op.arity()` of them).
        args: Vec<ScalarExpr>,
    },
}

#[allow(clippy::should_implement_trait)] // add/sub/mul are constructors, not operators
impl ScalarExpr {
    /// An affine load.
    pub fn load(array: ArrayId, idx: Vec<Idx>) -> Self {
        ScalarExpr::Load { array, idx }
    }

    /// A binary operation.
    pub fn bin(op: ComputeOp, a: ScalarExpr, b: ScalarExpr) -> Self {
        ScalarExpr::Op {
            op,
            args: vec![a, b],
        }
    }

    /// A unary operation.
    pub fn un(op: ComputeOp, a: ScalarExpr) -> Self {
        ScalarExpr::Op { op, args: vec![a] }
    }

    /// A three-operand select: `c != 0 ? t : e`.
    pub fn select(c: ScalarExpr, t: ScalarExpr, e: ScalarExpr) -> Self {
        ScalarExpr::Op {
            op: ComputeOp::Select,
            args: vec![c, t, e],
        }
    }

    /// `a + b`.
    pub fn add(a: ScalarExpr, b: ScalarExpr) -> Self {
        ScalarExpr::bin(ComputeOp::Add, a, b)
    }

    /// `a - b`.
    pub fn sub(a: ScalarExpr, b: ScalarExpr) -> Self {
        ScalarExpr::bin(ComputeOp::Sub, a, b)
    }

    /// `a * b`.
    pub fn mul(a: ScalarExpr, b: ScalarExpr) -> Self {
        ScalarExpr::bin(ComputeOp::Mul, a, b)
    }

    /// True if the expression contains an indirect load anywhere.
    pub fn has_indirect(&self) -> bool {
        match self {
            ScalarExpr::LoadIndirect { .. } => true,
            ScalarExpr::Op { args, .. } => args.iter().any(ScalarExpr::has_indirect),
            _ => false,
        }
    }

    /// Number of arithmetic operations in the expression tree.
    pub fn op_count(&self) -> u64 {
        match self {
            ScalarExpr::Op { args, .. } => 1 + args.iter().map(ScalarExpr::op_count).sum::<u64>(),
            _ => 0,
        }
    }
}

/// One statement of a kernel body, executed at every iteration point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stmt {
    /// `array[idx…] = value`, optionally reducing `value` over some loops first
    /// (`reduce` lists `(loop, op)` pairs; those loops must be the outermost
    /// lattice dimensions and must not appear in `idx`).
    Assign {
        /// Destination array.
        array: ArrayId,
        /// Store indices, one per array dimension.
        idx: Vec<Idx>,
        /// Stored value.
        value: ScalarExpr,
        /// Reduction loops folded into the value before the store.
        reduce: Vec<(LoopVar, ReduceOp)>,
    },
    /// `array[idx…] op= value` — read-modify-write accumulate.
    Accum {
        /// Destination array.
        array: ArrayId,
        /// Store indices.
        idx: Vec<Idx>,
        /// Combine operator.
        op: ReduceOp,
        /// Accumulated value.
        value: ScalarExpr,
        /// Reduction loops folded into the value before accumulating.
        reduce: Vec<(LoopVar, ReduceOp)>,
    },
    /// `name op= value` over the whole iteration space — a named scalar result.
    ScalarReduce {
        /// Result name.
        name: String,
        /// Reduction operator.
        op: ReduceOp,
        /// Reduced expression.
        value: ScalarExpr,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idx_builders_and_fold() {
        let i = LoopVar(0);
        let s = SymVar(0);
        let e = Idx::var_plus(i, 2).plus_sym(s, 3);
        let (off, coeffs) = e.fold_syms(2, &[5]).unwrap();
        assert_eq!(off, 2 + 15);
        assert_eq!(coeffs, vec![1, 0]);
        assert_eq!(e.max_loop(), Some(0));
        assert_eq!(e.max_sym(), Some(0));
        assert!(Idx::constant(4).fold_syms(1, &[]).unwrap().0 == 4);
    }

    #[test]
    fn fold_fails_on_unbound_sym() {
        let e = Idx::sym(SymVar(1));
        assert!(e.fold_syms(0, &[7]).is_none());
    }

    #[test]
    fn expr_helpers() {
        let a = ScalarExpr::Const(1.0);
        let b = ScalarExpr::Param(0);
        let e = ScalarExpr::add(a.clone(), ScalarExpr::mul(b, a));
        assert_eq!(e.op_count(), 2);
        assert!(!e.has_indirect());
        let ind = ScalarExpr::LoadIndirect {
            array: ArrayId(0),
            dim: 0,
            index: Box::new(ScalarExpr::Const(0.0)),
            rest: vec![Idx::constant(0)],
        };
        assert!(ScalarExpr::add(e, ind).has_indirect());
    }
}
