//! Stream extraction: lowering a kernel instantiation to an sDFG (paper §3.1).
//!
//! Every affine reference becomes a stream over the (rectangular) loop domain;
//! arithmetic becomes near-stream computation. This is the path the Near-L3
//! configuration executes, and the only path that supports indirect references.

use crate::{FrontendError, Idx, Kernel, ScalarExpr, Stmt};
use infs_sdfg::{
    AccessFn, AffineMap, ArrayId, BinOp, ExprId, ReduceOp, Sdfg, StreamExpr, StreamId, UnOp,
};
use infs_tdfg::ComputeOp;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::mem::discriminant;

struct Ctx<'k> {
    kernel: &'k Kernel,
    syms: Vec<i64>,
    lows: Vec<i64>,
    g: Sdfg,
    load_memo: HashMap<AccessFn, StreamId>,
    expr_memo: HashMap<ExprKey<'k>, ExprId>,
    /// The constant `1.0` that `<=` lowers through, made once.
    one: Option<ExprId>,
}

/// A memo key for a kernel expression: two keys are equal when the
/// expressions are structurally equal with `f32` constants compared by bits,
/// except that every NaN is one constant (as their `Debug` text is one).
#[derive(Clone, Copy)]
struct ExprKey<'k>(&'k ScalarExpr);

/// The bits a constant is keyed by: its own, or one NaN for every NaN.
fn const_key(v: f32) -> u32 {
    if v.is_nan() {
        f32::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

fn same_expr(a: &ScalarExpr, b: &ScalarExpr) -> bool {
    match (a, b) {
        (ScalarExpr::Const(x), ScalarExpr::Const(y)) => const_key(*x) == const_key(*y),
        (
            ScalarExpr::LoadIndirect {
                array,
                dim,
                index,
                rest,
            },
            ScalarExpr::LoadIndirect {
                array: array2,
                dim: dim2,
                index: index2,
                rest: rest2,
            },
        ) => array == array2 && dim == dim2 && rest == rest2 && same_expr(index, index2),
        (
            ScalarExpr::Op { op, args },
            ScalarExpr::Op {
                op: op2,
                args: args2,
            },
        ) => {
            op == op2
                && args.len() == args2.len()
                && args.iter().zip(args2).all(|(x, y)| same_expr(x, y))
        }
        // The other variants hold no float.
        _ => a == b,
    }
}

fn hash_expr<H: Hasher>(e: &ScalarExpr, h: &mut H) {
    discriminant(e).hash(h);
    match e {
        ScalarExpr::Load { array, idx } => (array, idx).hash(h),
        ScalarExpr::LoadIndirect {
            array,
            dim,
            index,
            rest,
        } => {
            (array, dim, rest).hash(h);
            hash_expr(index, h);
        }
        ScalarExpr::Const(v) => const_key(*v).hash(h),
        ScalarExpr::Param(i) => i.hash(h),
        ScalarExpr::LoopVal(v) => v.hash(h),
        ScalarExpr::Op { op, args } => {
            (op, args.len()).hash(h);
            for a in args {
                hash_expr(a, h);
            }
        }
    }
}

impl PartialEq for ExprKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        same_expr(self.0, other.0)
    }
}

impl Eq for ExprKey<'_> {}

impl Hash for ExprKey<'_> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        hash_expr(self.0, h);
    }
}

impl Kernel {
    /// Lowers the kernel into a stream dataflow graph under the given symbol
    /// bindings. All loops run sequentially near-memory; iteration variable 0
    /// is innermost.
    ///
    /// # Errors
    ///
    /// Returns [`FrontendError::NotStreamizable`] if an indirect index is not
    /// itself a plain affine load, plus the usual symbol/bound errors.
    pub fn streamize(&self, syms: &[i64]) -> Result<Sdfg, FrontendError> {
        let mut span = infs_trace::span!("frontend.streamize", kernel = self.name());
        let bounds = self.loop_bounds(syms)?;
        let trips: Vec<u64> = bounds.iter().map(|&(lo, hi)| (hi - lo) as u64).collect();
        let mut g = Sdfg::new(trips);
        g.set_arrays(self.shared_arrays().clone());
        let mut ctx = Ctx {
            kernel: self,
            syms: syms.to_vec(),
            lows: bounds.iter().map(|&(lo, _)| lo).collect(),
            g,
            load_memo: HashMap::new(),
            expr_memo: HashMap::new(),
            one: None,
        };
        for stmt in self.stmts() {
            ctx.lower_stmt(stmt)?;
        }
        ctx.g.validate().map_err(FrontendError::from)?;
        span.arg("streams", ctx.g.streams().len());
        Ok(ctx.g)
    }
}

impl<'k> Ctx<'k> {
    /// Folds an index list into an affine map over 0-based loop ivs.
    fn affine_map(&self, array: ArrayId, idx: &[Idx]) -> Result<AffineMap, FrontendError> {
        let nloops = self.kernel.loops().len();
        let mut offset = Vec::with_capacity(idx.len());
        let mut coeffs = Vec::with_capacity(idx.len());
        for e in idx {
            let (mut off, row) = e
                .fold_syms(nloops, &self.syms)
                .ok_or_else(|| FrontendError::UnboundSym(e.max_sym().unwrap_or(0)))?;
            // Shift loop variables to 0-based ivs: loop value = iv + lo.
            for (j, &c) in row.iter().enumerate() {
                off += c * self.lows[j];
            }
            offset.push(off);
            coeffs.push(row);
        }
        Ok(AffineMap {
            array,
            offset,
            coeffs,
        })
    }

    fn load_stream(&mut self, access: AccessFn) -> StreamId {
        if let Some(&s) = self.load_memo.get(&access) {
            return s;
        }
        let s = self.g.load(access.clone());
        self.load_memo.insert(access, s);
        s
    }

    fn lower_expr(&mut self, e: &'k ScalarExpr) -> Result<ExprId, FrontendError> {
        let key = ExprKey(e);
        if let Some(&id) = self.expr_memo.get(&key) {
            return Ok(id);
        }
        let id = match e {
            ScalarExpr::Load { array, idx } => {
                let access = AccessFn::Affine(self.affine_map(*array, idx)?);
                let s = self.load_stream(access);
                self.g.stream_val(s)
            }
            ScalarExpr::LoadIndirect {
                array,
                dim,
                index,
                rest,
            } => {
                let ScalarExpr::Load {
                    array: iarr,
                    idx: iidx,
                } = index.as_ref()
                else {
                    return Err(FrontendError::NotStreamizable {
                        reason: "indirect index must itself be a plain affine load".into(),
                    });
                };
                let index_access = AccessFn::Affine(self.affine_map(*iarr, iidx)?);
                let index_stream = self.load_stream(index_access);
                let rest_map = self.affine_map(*array, rest)?;
                let s = self.load_stream(AccessFn::Indirect {
                    array: *array,
                    index_stream,
                    dim: *dim,
                    rest: rest_map,
                });
                self.g.stream_val(s)
            }
            ScalarExpr::Const(v) => self.g.expr(StreamExpr::Const(*v)),
            ScalarExpr::Param(i) => self.g.expr(StreamExpr::Param(*i)),
            ScalarExpr::LoopVal(v) => {
                let iv = self.g.expr(StreamExpr::LoopVar(v.0 as u32));
                let lo = self.lows[v.0];
                if lo == 0 {
                    iv
                } else {
                    let c = self.g.expr(StreamExpr::Const(lo as f32));
                    self.g.expr(StreamExpr::add(iv, c))
                }
            }
            ScalarExpr::Op { op, args } => {
                let ids: Vec<ExprId> = args
                    .iter()
                    .map(|a| self.lower_expr(a))
                    .collect::<Result<_, _>>()?;
                self.lower_op(*op, &ids)
            }
        };
        self.expr_memo.insert(key, id);
        Ok(id)
    }

    /// Maps a tDFG compute op onto near-stream expression operators.
    fn lower_op(&mut self, op: ComputeOp, ids: &[ExprId]) -> ExprId {
        let bin = |g: &mut Sdfg, b: BinOp, x: ExprId, y: ExprId| g.expr(StreamExpr::Bin(b, x, y));
        match op {
            ComputeOp::Add => bin(&mut self.g, BinOp::Add, ids[0], ids[1]),
            ComputeOp::Sub => bin(&mut self.g, BinOp::Sub, ids[0], ids[1]),
            ComputeOp::Mul => bin(&mut self.g, BinOp::Mul, ids[0], ids[1]),
            ComputeOp::Div => bin(&mut self.g, BinOp::Div, ids[0], ids[1]),
            ComputeOp::Min => bin(&mut self.g, BinOp::Min, ids[0], ids[1]),
            ComputeOp::Max => bin(&mut self.g, BinOp::Max, ids[0], ids[1]),
            ComputeOp::CmpLt => bin(&mut self.g, BinOp::Lt, ids[0], ids[1]),
            ComputeOp::CmpLe => {
                // a <= b  ==  1 - (b < a)
                let lt = bin(&mut self.g, BinOp::Lt, ids[1], ids[0]);
                let one = *self
                    .one
                    .get_or_insert_with(|| self.g.expr(StreamExpr::Const(1.0)));
                bin(&mut self.g, BinOp::Sub, one, lt)
            }
            ComputeOp::CmpEq => {
                // (a <= b) * (b <= a)
                let le1 = self.lower_op(ComputeOp::CmpLe, &[ids[0], ids[1]]);
                let le2 = self.lower_op(ComputeOp::CmpLe, &[ids[1], ids[0]]);
                bin(&mut self.g, BinOp::Mul, le1, le2)
            }
            ComputeOp::Neg => self.g.expr(StreamExpr::Un(UnOp::Neg, ids[0])),
            ComputeOp::Abs => self.g.expr(StreamExpr::Un(UnOp::Abs, ids[0])),
            ComputeOp::Sqrt => self.g.expr(StreamExpr::Un(UnOp::Sqrt, ids[0])),
            ComputeOp::Relu => self.g.expr(StreamExpr::Un(UnOp::Relu, ids[0])),
            ComputeOp::Select => self.g.expr(StreamExpr::Select(ids[0], ids[1], ids[2])),
            ComputeOp::Copy => ids[0],
        }
    }

    fn store_access(
        &self,
        array: ArrayId,
        idx: &[Idx],
        value: &ScalarExpr,
    ) -> Result<AccessFn, FrontendError> {
        // A store may itself be indirect when its index expression appears as
        // LoadIndirect in kernels like kmeans' centroid update; here store
        // indices are plain affine (indirect stores use `Stmt::Accum` with an
        // indirect *value*-driven target via `streamize_indirect_store`).
        let _ = value;
        Ok(AccessFn::Affine(self.affine_map(array, idx)?))
    }

    fn lower_stmt(&mut self, stmt: &'k Stmt) -> Result<(), FrontendError> {
        match stmt {
            Stmt::Assign {
                array,
                idx,
                value,
                reduce,
            } => {
                let v = self.lower_expr(value)?;
                let access = self.store_access(*array, idx, value)?;
                if reduce.is_empty() {
                    self.g.store(access, v);
                } else {
                    // Reduced assigns accumulate over the reduction loops; the
                    // target must be pre-initialized to the reduction identity.
                    let op = reduce[0].1;
                    self.g.update(access, op, v);
                }
                Ok(())
            }
            Stmt::Accum {
                array,
                idx,
                op,
                value,
                ..
            } => {
                let v = self.lower_expr(value)?;
                let access = self.store_access(*array, idx, value)?;
                self.g.update(access, *op, v);
                Ok(())
            }
            Stmt::ScalarReduce { name, op, value } => {
                let v = self.lower_expr(value)?;
                self.g.reduce(name.clone(), *op, v);
                Ok(())
            }
        }
    }
}

/// Builds an sDFG statement for an *indirect store/update* — e.g. kmeans'
/// `centroid[assign[i]][d] += point[i][d]` — which `Stmt` cannot express
/// because store targets are affine. The caller provides the index load and
/// the updated array/dimension directly.
///
/// # Errors
///
/// Returns [`FrontendError::Sdfg`] if the produced graph fails validation.
pub fn indirect_update(
    g: &mut Sdfg,
    array: ArrayId,
    dim: usize,
    index_stream: StreamId,
    rest: AffineMap,
    op: ReduceOp,
    value: ExprId,
) -> Result<StreamId, FrontendError> {
    let s = g.update(
        AccessFn::Indirect {
            array,
            index_stream,
            dim,
            rest,
        },
        op,
        value,
    );
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::ExprKey;
    use crate::{Idx, KernelBuilder, LoopVar, ScalarExpr};
    use infs_sdfg::{ArrayId, DataType, Memory, ReduceOp};
    use infs_tdfg::ComputeOp;
    use std::hash::BuildHasher;

    /// The structural memo key identifies expressions exactly as their
    /// `Debug` text does: signed zeros apart, every NaN together.
    #[test]
    fn expr_keys_agree_with_debug_text() {
        let load = |d: i64| ScalarExpr::load(ArrayId(0), vec![Idx::var_plus(LoopVar(0), d)]);
        let exprs = [
            ScalarExpr::Const(0.0),
            ScalarExpr::Const(-0.0),
            ScalarExpr::Const(f32::NAN),
            ScalarExpr::Const(-f32::NAN),
            ScalarExpr::Const(f32::from_bits(0x7fc0_0001)),
            ScalarExpr::Const(1.0),
            ScalarExpr::Param(0),
            ScalarExpr::LoopVal(LoopVar(0)),
            load(0),
            load(1),
            ScalarExpr::add(load(0), ScalarExpr::Const(f32::NAN)),
            ScalarExpr::add(load(0), ScalarExpr::Const(-f32::NAN)),
            ScalarExpr::add(load(0), ScalarExpr::Const(-0.0)),
            ScalarExpr::mul(load(0), ScalarExpr::Const(-0.0)),
            ScalarExpr::LoadIndirect {
                array: ArrayId(1),
                dim: 0,
                index: Box::new(load(0)),
                rest: vec![Idx::constant(0)],
            },
            ScalarExpr::LoadIndirect {
                array: ArrayId(1),
                dim: 0,
                index: Box::new(load(1)),
                rest: vec![Idx::constant(0)],
            },
        ];
        let state = std::collections::hash_map::RandomState::new();
        for a in &exprs {
            for b in &exprs {
                let same = format!("{a:?}") == format!("{b:?}");
                assert_eq!(ExprKey(a) == ExprKey(b), same, "{a:?} vs {b:?}");
                if same {
                    assert_eq!(state.hash_one(ExprKey(a)), state.hash_one(ExprKey(b)));
                }
            }
        }
    }

    #[test]
    fn vec_add_streams_match_reference() {
        let n = 16u64;
        let mut k = KernelBuilder::new("vec_add", DataType::F32);
        let a = k.array("A", vec![n]);
        let b = k.array("B", vec![n]);
        let c = k.array("C", vec![n]);
        let i = k.parallel_loop("i", 0, n as i64);
        k.assign(
            c,
            vec![Idx::var(i)],
            ScalarExpr::add(
                ScalarExpr::load(a, vec![Idx::var(i)]),
                ScalarExpr::load(b, vec![Idx::var(i)]),
            ),
        );
        let kernel = k.build().unwrap();
        let g = kernel.streamize(&[]).unwrap();
        assert_eq!(g.iterations(), n);

        let mut mem = Memory::for_arrays(g.arrays());
        let av: Vec<f32> = (0..n).map(|x| x as f32).collect();
        let bv: Vec<f32> = (0..n).map(|x| 2.0 * x as f32).collect();
        mem.write_array(a, &av);
        mem.write_array(b, &bv);
        infs_sdfg::interp::execute(&g, &mut mem, &[]).unwrap();
        for x in 0..n as usize {
            assert_eq!(mem.array(c)[x], 3.0 * x as f32);
        }
    }

    #[test]
    fn loads_are_deduplicated() {
        let mut k = KernelBuilder::new("sq", DataType::F32);
        let a = k.array("A", vec![8]);
        let b = k.array("B", vec![8]);
        let i = k.parallel_loop("i", 0, 8);
        k.assign(
            b,
            vec![Idx::var(i)],
            ScalarExpr::mul(
                ScalarExpr::load(a, vec![Idx::var(i)]),
                ScalarExpr::load(a, vec![Idx::var(i)]),
            ),
        );
        let g = k.build().unwrap().streamize(&[]).unwrap();
        // 1 load stream + 1 store stream.
        assert_eq!(g.streams().len(), 2);
    }

    #[test]
    fn shifted_bounds_produce_shifted_maps() {
        // B[i] = A[i+1] for i in [1, 7): iv 0 maps to A[2].
        let mut k = KernelBuilder::new("shift", DataType::F32);
        let a = k.array("A", vec![8]);
        let b = k.array("B", vec![8]);
        let i = k.parallel_loop("i", 1, 7);
        k.assign(
            b,
            vec![Idx::var(i)],
            ScalarExpr::load(a, vec![Idx::var_plus(i, 1)]),
        );
        let g = k.build().unwrap().streamize(&[]).unwrap();
        let mut mem = Memory::for_arrays(g.arrays());
        let av: Vec<f32> = (0..8).map(|x| x as f32 * 10.0).collect();
        mem.write_array(a, &av);
        infs_sdfg::interp::execute(&g, &mut mem, &[]).unwrap();
        for x in 1..7 {
            assert_eq!(mem.array(b)[x], av[x + 1]);
        }
        assert_eq!(mem.array(b)[0], 0.0);
    }

    #[test]
    fn indirect_gather_streams() {
        // out[i] = data[idx[i]]
        let mut k = KernelBuilder::new("gather", DataType::F32);
        let data = k.array("data", vec![8]);
        let idx = k.array_typed("idx", vec![4], DataType::I32);
        let out = k.array("out", vec![4]);
        let i = k.parallel_loop("i", 0, 4);
        k.assign(
            out,
            vec![Idx::var(i)],
            ScalarExpr::LoadIndirect {
                array: data,
                dim: 0,
                index: Box::new(ScalarExpr::load(idx, vec![Idx::var(i)])),
                rest: vec![Idx::constant(0)],
            },
        );
        let g = k.build().unwrap().streamize(&[]).unwrap();
        let mut mem = Memory::for_arrays(g.arrays());
        mem.write_array(data, &[0., 10., 20., 30., 40., 50., 60., 70.]);
        mem.write_array(idx, &[3., 1., 7., 1.]);
        infs_sdfg::interp::execute(&g, &mut mem, &[]).unwrap();
        assert_eq!(mem.array(out), &[30., 10., 70., 10.]);
    }

    #[test]
    fn scalar_reduce_and_cmp_lowering() {
        // count = sum(A[i] <= 2)
        let mut k = KernelBuilder::new("count_le", DataType::F32);
        let a = k.array("A", vec![6]);
        let i = k.parallel_loop("i", 0, 6);
        k.scalar_reduce(
            "count",
            ReduceOp::Sum,
            ScalarExpr::bin(
                ComputeOp::CmpLe,
                ScalarExpr::load(a, vec![Idx::var(i)]),
                ScalarExpr::Const(2.0),
            ),
        );
        let g = k.build().unwrap().streamize(&[]).unwrap();
        let mut mem = Memory::for_arrays(g.arrays());
        mem.write_array(a, &[0., 1., 2., 3., 4., 2.]);
        let out = infs_sdfg::interp::execute(&g, &mut mem, &[]).unwrap();
        assert_eq!(out.scalar("count"), Some(4.0));
    }

    #[test]
    fn tensorize_and_streamize_agree() {
        // Same kernel through both paths must produce identical results.
        let n = 12u64;
        let mut k = KernelBuilder::new("axpy", DataType::F32);
        let a = k.array("A", vec![n]);
        let y = k.array("Y", vec![n]);
        let i = k.parallel_loop("i", 0, n as i64);
        k.assign(
            y,
            vec![Idx::var(i)],
            ScalarExpr::add(
                ScalarExpr::mul(ScalarExpr::Param(0), ScalarExpr::load(a, vec![Idx::var(i)])),
                ScalarExpr::load(y, vec![Idx::var(i)]),
            ),
        );
        let kernel = k.build().unwrap();
        let av: Vec<f32> = (0..n).map(|x| x as f32).collect();
        let yv: Vec<f32> = (0..n).map(|x| 100.0 + x as f32).collect();

        let tg = kernel.tensorize(&[]).unwrap();
        let mut m1 = Memory::for_arrays(tg.arrays());
        m1.write_array(a, &av);
        m1.write_array(y, &yv);
        infs_tdfg::interp::execute(&tg, &mut m1, &[2.0], &Default::default()).unwrap();

        let sg = kernel.streamize(&[]).unwrap();
        let mut m2 = Memory::for_arrays(sg.arrays());
        m2.write_array(a, &av);
        m2.write_array(y, &yv);
        infs_sdfg::interp::execute(&sg, &mut m2, &[2.0]).unwrap();

        assert_eq!(m1.array(y), m2.array(y));
    }
}
