use crate::{FrontendError, Idx, ScalarExpr, Stmt};
use infs_sdfg::{ArrayDecl, ArrayId, DataType, ReduceOp};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Handle to a parallel loop of a kernel. The loop's position doubles as its
/// lattice dimension: loop 0 is lattice dimension 0 (innermost / contiguous).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LoopVar(pub usize);

/// Handle to an integer symbol bound at instantiation time (array sizes,
/// sequential host-loop variables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SymVar(pub usize);

/// One parallel loop: `for v in [lo, hi)`, bounds affine in symbols.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopDef {
    /// Diagnostic name.
    pub name: String,
    /// Lower bound (symbols only — no loop terms).
    pub lo: Idx,
    /// Upper bound (symbols only).
    pub hi: Idx,
}

/// A validated loop-nest kernel: the unit the compiler turns into one
/// infinity-stream region. See the crate docs for the model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Kernel {
    name: String,
    dtype: DataType,
    /// Shared with every graph the kernel lowers to, so entering a region
    /// does not copy the table.
    arrays: Arc<[ArrayDecl]>,
    loops: Vec<LoopDef>,
    syms: Vec<String>,
    stmts: Vec<Stmt>,
}

impl Kernel {
    /// Kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Compute data type.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Declared arrays, indexable by [`ArrayId`].
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// The declared arrays as a shared table: cloning it is a reference
    /// count, not a copy.
    pub fn shared_arrays(&self) -> &Arc<[ArrayDecl]> {
        &self.arrays
    }

    /// Parallel loops, innermost first.
    pub fn loops(&self) -> &[LoopDef] {
        &self.loops
    }

    /// Symbol names, indexable by [`SymVar`].
    pub fn syms(&self) -> &[String] {
        &self.syms
    }

    /// Body statements.
    pub fn stmts(&self) -> &[Stmt] {
        &self.stmts
    }

    /// Evaluates every loop's bounds under the given symbol values.
    ///
    /// # Errors
    ///
    /// Returns [`FrontendError::UnboundSym`] for a missing symbol and
    /// [`FrontendError::EmptyLoop`] for an empty or inverted range.
    pub fn loop_bounds(&self, syms: &[i64]) -> Result<Vec<(i64, i64)>, FrontendError> {
        self.loops
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let lo = fold_symonly(&l.lo, syms)?;
                let hi = fold_symonly(&l.hi, syms)?;
                if lo >= hi {
                    return Err(FrontendError::EmptyLoop { index: i, lo, hi });
                }
                Ok((lo, hi))
            })
            .collect()
    }

    /// True if any statement involves an indirect reference (in which case the
    /// kernel can only run near-memory).
    pub fn has_indirect(&self) -> bool {
        self.stmts.iter().any(|s| match s {
            Stmt::Assign { value, .. }
            | Stmt::Accum { value, .. }
            | Stmt::ScalarReduce { value, .. } => value.has_indirect(),
        })
    }
}

fn fold_symonly(idx: &Idx, syms: &[i64]) -> Result<i64, FrontendError> {
    if !idx.loop_coeffs.is_empty() {
        return Err(FrontendError::NotTensorizable {
            reason: "loop bounds must not reference loop variables".into(),
        });
    }
    let mut v = idx.offset;
    for &(s, c) in &idx.sym_coeffs {
        v += c * *syms.get(s).ok_or(FrontendError::UnboundSym(s))?;
    }
    Ok(v)
}

/// Incremental builder for [`Kernel`]s; the programmer-facing "plain C" API.
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    name: String,
    dtype: DataType,
    arrays: Vec<ArrayDecl>,
    loops: Vec<LoopDef>,
    syms: Vec<String>,
    stmts: Vec<Stmt>,
}

impl KernelBuilder {
    /// Starts a kernel computing in `dtype`.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        KernelBuilder {
            name: name.into(),
            dtype,
            arrays: Vec::new(),
            loops: Vec::new(),
            syms: Vec::new(),
            stmts: Vec::new(),
        }
    }

    /// Declares an array of the kernel's data type (shape innermost first).
    pub fn array(&mut self, name: impl Into<String>, shape: Vec<u64>) -> ArrayId {
        let dtype = self.dtype;
        self.array_typed(name, shape, dtype)
    }

    /// Declares an array with an explicit element type (e.g. `I32` indices).
    pub fn array_typed(
        &mut self,
        name: impl Into<String>,
        shape: Vec<u64>,
        dtype: DataType,
    ) -> ArrayId {
        self.arrays.push(ArrayDecl::new(name, shape, dtype));
        ArrayId(self.arrays.len() as u32 - 1)
    }

    /// Declares an integer symbol (bound at instantiation).
    pub fn sym(&mut self, name: impl Into<String>) -> SymVar {
        self.syms.push(name.into());
        SymVar(self.syms.len() - 1)
    }

    /// Declares a parallel loop with constant bounds `[lo, hi)`. Loops are
    /// declared innermost first; loop *k* becomes lattice dimension *k*.
    pub fn parallel_loop(&mut self, name: impl Into<String>, lo: i64, hi: i64) -> LoopVar {
        self.parallel_loop_bounds(name, Idx::constant(lo), Idx::constant(hi))
    }

    /// Declares a parallel loop with symbol-dependent bounds.
    pub fn parallel_loop_bounds(&mut self, name: impl Into<String>, lo: Idx, hi: Idx) -> LoopVar {
        self.loops.push(LoopDef {
            name: name.into(),
            lo,
            hi,
        });
        LoopVar(self.loops.len() - 1)
    }

    /// Adds `array[idx…] = value`.
    pub fn assign(&mut self, array: ArrayId, idx: Vec<Idx>, value: ScalarExpr) {
        self.stmts.push(Stmt::Assign {
            array,
            idx,
            value,
            reduce: Vec::new(),
        });
    }

    /// Adds `array[idx…] = reduce(value over `reduce` loops)`.
    pub fn assign_reduced(
        &mut self,
        array: ArrayId,
        idx: Vec<Idx>,
        value: ScalarExpr,
        reduce: Vec<(LoopVar, ReduceOp)>,
    ) {
        self.stmts.push(Stmt::Assign {
            array,
            idx,
            value,
            reduce,
        });
    }

    /// Adds `array[idx…] op= value`.
    pub fn accum(&mut self, array: ArrayId, idx: Vec<Idx>, op: ReduceOp, value: ScalarExpr) {
        self.stmts.push(Stmt::Accum {
            array,
            idx,
            op,
            value,
            reduce: Vec::new(),
        });
    }

    /// Adds a whole-iteration-space scalar reduction, `name op= value`.
    pub fn scalar_reduce(&mut self, name: impl Into<String>, op: ReduceOp, value: ScalarExpr) {
        self.stmts.push(Stmt::ScalarReduce {
            name: name.into(),
            op,
            value,
        });
    }

    /// Validates references and freezes the kernel.
    ///
    /// # Errors
    ///
    /// Returns the first dangling array reference or index-arity mismatch.
    pub fn build(self) -> Result<Kernel, FrontendError> {
        let k = Kernel {
            name: self.name,
            dtype: self.dtype,
            arrays: self.arrays.into(),
            loops: self.loops,
            syms: self.syms,
            stmts: self.stmts,
        };
        for s in &k.stmts {
            match s {
                Stmt::Assign {
                    array, idx, value, ..
                }
                | Stmt::Accum {
                    array, idx, value, ..
                } => {
                    check_ref(&k, *array, idx)?;
                    check_expr(&k, value)?;
                }
                Stmt::ScalarReduce { value, .. } => check_expr(&k, value)?,
            }
        }
        Ok(k)
    }
}

fn check_ref(k: &Kernel, array: ArrayId, idx: &[Idx]) -> Result<(), FrontendError> {
    let decl = k
        .arrays
        .get(array.0 as usize)
        .ok_or(FrontendError::UnknownArray(array))?;
    if idx.len() != decl.ndim() {
        return Err(FrontendError::IndexArity {
            array,
            got: idx.len(),
            expected: decl.ndim(),
        });
    }
    for e in idx {
        if e.max_loop().is_some_and(|l| l >= k.loops.len())
            || e.max_sym().is_some_and(|s| s >= k.syms.len())
        {
            return Err(FrontendError::UnknownArray(array));
        }
    }
    Ok(())
}

fn check_expr(k: &Kernel, e: &ScalarExpr) -> Result<(), FrontendError> {
    match e {
        ScalarExpr::Load { array, idx } => check_ref(k, *array, idx),
        ScalarExpr::LoadIndirect {
            array,
            index,
            rest,
            dim,
        } => {
            check_ref(k, *array, rest)?;
            if *dim >= rest.len() {
                return Err(FrontendError::IndexArity {
                    array: *array,
                    got: *dim,
                    expected: rest.len(),
                });
            }
            check_expr(k, index)
        }
        ScalarExpr::Const(_) | ScalarExpr::Param(_) | ScalarExpr::LoopVal(_) => Ok(()),
        ScalarExpr::Op { args, .. } => {
            for a in args {
                check_expr(k, a)?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infs_tdfg::ComputeOp;

    #[test]
    fn build_and_bounds() {
        let mut b = KernelBuilder::new("k", DataType::F32);
        let n = b.sym("n");
        let a = b.array("A", vec![16]);
        let i = b.parallel_loop_bounds("i", Idx::constant(0), Idx::sym(n));
        b.assign(a, vec![Idx::var(i)], ScalarExpr::Const(1.0));
        let k = b.build().unwrap();
        assert_eq!(k.loop_bounds(&[8]).unwrap(), vec![(0, 8)]);
        assert!(matches!(
            k.loop_bounds(&[0]),
            Err(FrontendError::EmptyLoop { .. })
        ));
        assert!(matches!(
            k.loop_bounds(&[]),
            Err(FrontendError::UnboundSym(0))
        ));
        assert!(!k.has_indirect());
        assert_eq!(k.name(), "k");
    }

    #[test]
    fn build_rejects_index_arity() {
        let mut b = KernelBuilder::new("k", DataType::F32);
        let a = b.array("A", vec![4, 4]);
        let i = b.parallel_loop("i", 0, 4);
        b.assign(a, vec![Idx::var(i)], ScalarExpr::Const(0.0));
        assert!(matches!(b.build(), Err(FrontendError::IndexArity { .. })));
    }

    #[test]
    fn build_rejects_dangling_loop_ref() {
        let mut b = KernelBuilder::new("k", DataType::F32);
        let a = b.array("A", vec![4]);
        b.assign(a, vec![Idx::var(LoopVar(3))], ScalarExpr::Const(0.0));
        assert!(b.build().is_err());
    }

    #[test]
    fn indirect_detection() {
        let mut b = KernelBuilder::new("k", DataType::F32);
        let data = b.array("data", vec![8]);
        let idx = b.array_typed("idx", vec![4], DataType::I32);
        let out = b.array("out", vec![4]);
        let i = b.parallel_loop("i", 0, 4);
        let gathered = ScalarExpr::LoadIndirect {
            array: data,
            dim: 0,
            index: Box::new(ScalarExpr::load(idx, vec![Idx::var(i)])),
            rest: vec![Idx::constant(0)],
        };
        b.assign(out, vec![Idx::var(i)], gathered);
        let k = b.build().unwrap();
        assert!(k.has_indirect());
        assert_eq!(
            ScalarExpr::bin(
                ComputeOp::Add,
                ScalarExpr::Const(0.0),
                ScalarExpr::Const(1.0)
            )
            .op_count(),
            1
        );
    }
}
