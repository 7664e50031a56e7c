//! Tensor unrolling: turning an affine kernel into a tDFG (paper §3.2).
//!
//! Every affine load becomes an [`Input`](infs_tdfg::Node::Input) tensor at its
//! *canonical* lattice placement (element `A[x…]` lives in lattice cell `x…`),
//! followed by explicit alignment:
//!
//! * a constant index offset (`A[i+1]`) becomes a `mv` node back onto the
//!   iteration space — exactly Fig 4(a);
//! * a loop-invariant dimension (`A[k][j]` under loops `i`,`j`, or an array of
//!   lower rank than the lattice) becomes a `bc` broadcast across the missing
//!   dimension — exactly Fig 4(c)/Fig 8;
//! * reduction loops become `reduce` nodes after the element-wise body.
//!
//! Identical subtrees are hash-consed so repeated references share one tensor.

use crate::{FrontendError, Idx, Kernel, ScalarExpr, Stmt};
use infs_geom::HyperRect;
use infs_sdfg::{ArrayId, ReduceOp};
use infs_tdfg::{ComputeOp, NodeId, OutputTarget, Tdfg, TdfgBuilder};
use std::collections::HashMap;

/// Hash-cons key for structural deduplication during unrolling.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Input(u32, Vec<(i64, i64)>),
    Const(u32),
    Param(u32),
    Compute(ComputeOp, Vec<u32>),
    Mv(u32, usize, i64),
    Bc(u32, usize, i64, u64),
    Reduce(u32, usize, ReduceOp),
}

struct Ctx {
    syms: Vec<i64>,
    bounds: Vec<(i64, i64)>,
    builder: TdfgBuilder,
    memo: HashMap<Key, NodeId>,
}

impl Kernel {
    /// Unrolls the kernel into a tensor dataflow graph under the given symbol
    /// bindings.
    ///
    /// # Errors
    ///
    /// Returns [`FrontendError::NotTensorizable`] for kernels with indirect
    /// references, non-unit loop coefficients, or indices mixing several loop
    /// variables — those kernels run near-memory via
    /// [`streamize`](Kernel::streamize) instead. Symbol and bound errors are
    /// reported as in [`loop_bounds`](Kernel::loop_bounds).
    pub fn tensorize(&self, syms: &[i64]) -> Result<Tdfg, FrontendError> {
        let _span = infs_trace::span!("frontend.tensorize", kernel = self.name());
        let bounds = self.loop_bounds(syms)?;
        let mut builder = TdfgBuilder::new(self.loops().len(), self.dtype());
        builder.set_arrays(self.shared_arrays().clone());
        let mut ctx = Ctx {
            syms: syms.to_vec(),
            bounds,
            builder,
            memo: HashMap::new(),
        };
        for stmt in self.stmts() {
            ctx.lower_stmt(stmt)?;
        }
        ctx.builder.build().map_err(FrontendError::from)
    }
}

/// Classification of one array-dimension index.
enum DimIdx {
    /// `loop_d + c`: follows the matching lattice dimension with offset `c`.
    Var(i64),
    /// A constant coordinate.
    Const(i64),
}

impl Ctx {
    fn ndim(&self) -> usize {
        self.bounds.len()
    }

    fn iter_interval(&self, d: usize) -> (i64, i64) {
        self.bounds[d]
    }

    fn memoize(
        &mut self,
        key: Key,
        make: impl FnOnce(&mut TdfgBuilder) -> Result<NodeId, infs_tdfg::TdfgError>,
    ) -> Result<NodeId, FrontendError> {
        if let Some(&id) = self.memo.get(&key) {
            return Ok(id);
        }
        let id = make(&mut self.builder)?;
        self.memo.insert(key, id);
        Ok(id)
    }

    /// Classifies index expressions of one array reference.
    fn classify(&self, array: ArrayId, idx: &[Idx]) -> Result<Vec<DimIdx>, FrontendError> {
        let ndim = self.ndim();
        if idx.len() > ndim {
            // The array has more dimensions than the lattice: its extra
            // coordinates cannot be mapped to bitlines (the LOT tracks at most
            // the lattice's dimensionality). Such references stay near-memory.
            return Err(FrontendError::NotTensorizable {
                reason: format!(
                    "array {array} has rank {} but the lattice is {ndim}-dimensional",
                    idx.len()
                ),
            });
        }
        idx.iter()
            .enumerate()
            .map(|(d, e)| {
                let (offset, coeffs) = e
                    .fold_syms(ndim, &self.syms)
                    .ok_or_else(|| FrontendError::UnboundSym(e.max_sym().unwrap_or(0)))?;
                let nonzero: Vec<(usize, i64)> = coeffs
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c != 0)
                    .map(|(j, &c)| (j, c))
                    .collect();
                match nonzero.as_slice() {
                    [] => Ok(DimIdx::Const(offset)),
                    [(j, 1)] if *j == d => Ok(DimIdx::Var(offset)),
                    [(j, c)] => Err(FrontendError::NotTensorizable {
                        reason: format!(
                            "array {array} dim {d} indexed by loop {j} with coefficient {c}; \
                             tensor unrolling requires dimension-aligned unit-stride indices"
                        ),
                    }),
                    _ => Err(FrontendError::NotTensorizable {
                        reason: format!("array {array} dim {d} mixes several loop variables"),
                    }),
                }
            })
            .collect()
    }

    /// Builds the canonical input tensor of a load and aligns it to
    /// `target[d]` intervals (usually the iteration space).
    fn lower_load(
        &mut self,
        array: ArrayId,
        idx: &[Idx],
        target: &[(i64, i64)],
    ) -> Result<NodeId, FrontendError> {
        let dims = self.classify(array, idx)?;
        let ndim = self.ndim();
        // Canonical placement.
        let mut canonical = Vec::with_capacity(ndim);
        #[allow(clippy::needless_range_loop)] // d indexes dims and target together
        for d in 0..ndim {
            let iv = match dims.get(d) {
                Some(DimIdx::Var(c)) => {
                    let (lo, hi) = target[d];
                    (lo + c, hi + c)
                }
                Some(DimIdx::Const(v)) => (*v, v + 1),
                None => (0, 1), // lattice dims beyond the array's rank
            };
            canonical.push(iv);
        }
        let rect = HyperRect::new(canonical.clone()).map_err(infs_tdfg::TdfgError::from)?;
        let mut node = self.memoize(Key::Input(array.0, canonical.clone()), |b| {
            b.input(array, rect)
        })?;
        // Alignment.
        for d in 0..ndim {
            let (tlo, thi) = target[d];
            let (clo, chi) = canonical[d];
            if (clo, chi) == (tlo, thi) {
                continue;
            }
            match dims.get(d) {
                Some(DimIdx::Var(c)) => {
                    // mv back by the constant offset (Fig 4a).
                    debug_assert_eq!((clo, chi), (tlo + c, thi + c));
                    node = self.memoize(Key::Mv(node.0, d, -c), |b| b.mv(node, d, -c))?;
                }
                Some(DimIdx::Const(_)) | None => {
                    if thi - tlo == 1 {
                        let dist = tlo - clo;
                        node = self.memoize(Key::Mv(node.0, d, dist), |b| b.mv(node, d, dist))?;
                    } else {
                        let count = (thi - tlo) as u64;
                        node = self.memoize(Key::Bc(node.0, d, tlo, count), |b| {
                            b.bc(node, d, tlo, count)
                        })?;
                    }
                }
            }
        }
        Ok(node)
    }

    /// Lowers an expression aligned to the full iteration space.
    fn lower_expr(&mut self, e: &ScalarExpr) -> Result<NodeId, FrontendError> {
        let target = self.bounds.clone();
        self.lower_expr_to(e, &target)
    }

    fn lower_expr_to(
        &mut self,
        e: &ScalarExpr,
        target: &[(i64, i64)],
    ) -> Result<NodeId, FrontendError> {
        match e {
            ScalarExpr::Load { array, idx } => self.lower_load(*array, idx, target),
            ScalarExpr::LoadIndirect { array, .. } => Err(FrontendError::NotTensorizable {
                reason: format!("indirect access to {array} is only executable near-memory"),
            }),
            ScalarExpr::Const(v) => self.memoize(Key::Const(v.to_bits()), |b| Ok(b.constant(*v))),
            ScalarExpr::Param(i) => self.memoize(Key::Param(*i), |b| Ok(b.param(*i))),
            ScalarExpr::LoopVal(v) => Err(FrontendError::NotTensorizable {
                reason: format!(
                    "loop variable {} used as a value; iota tensors are not supported in-memory",
                    v.0
                ),
            }),
            ScalarExpr::Op { op, args } => {
                let ids = args
                    .iter()
                    .map(|a| self.lower_expr_to(a, target))
                    .collect::<Result<Vec<_>, _>>()?;
                let key = Key::Compute(*op, ids.iter().map(|i| i.0).collect());
                self.memoize(key, |b| b.compute(*op, &ids))
            }
        }
    }

    /// Applies reduction loops to a value node. The reduced dimension
    /// collapses to its start coordinate `[lo, lo+1)`; store offsets map it to
    /// the array's coordinates, so no normalizing move is needed (one would
    /// also risk leaving the bounding box when `lo > 0`).
    fn apply_reduce(
        &mut self,
        mut node: NodeId,
        reduce: &[(crate::LoopVar, ReduceOp)],
    ) -> Result<(NodeId, Vec<usize>), FrontendError> {
        let mut reduced_dims = Vec::with_capacity(reduce.len());
        for &(lv, op) in reduce {
            let d = lv.0;
            if d >= self.ndim() || reduced_dims.contains(&d) {
                return Err(FrontendError::NotTensorizable {
                    reason: format!("invalid or duplicate reduction loop {d}"),
                });
            }
            node = self.memoize(Key::Reduce(node.0, d, op), |b| b.reduce(node, d, op))?;
            reduced_dims.push(d);
        }
        Ok((node, reduced_dims))
    }

    /// Lattice intervals of a value after reducing `reduced_dims`.
    fn reduced_target(&self, reduced_dims: &[usize]) -> Vec<(i64, i64)> {
        (0..self.ndim())
            .map(|d| {
                let (lo, hi) = self.iter_interval(d);
                if reduced_dims.contains(&d) {
                    (lo, lo + 1)
                } else {
                    (lo, hi)
                }
            })
            .collect()
    }

    /// Builds the store target for a node whose domain is `value_iv`.
    fn store_target(
        &self,
        array: ArrayId,
        idx: &[Idx],
        value_iv: &[(i64, i64)],
        reduced_dims: &[usize],
    ) -> Result<OutputTarget, FrontendError> {
        let dims = self.classify(array, idx)?;
        let ndim = self.ndim();
        let mut rect_iv = Vec::with_capacity(ndim);
        let mut offset = Vec::with_capacity(ndim);
        #[allow(clippy::needless_range_loop)] // d indexes dims and value_iv together
        for d in 0..ndim {
            let (vlo, vhi) = value_iv[d];
            match dims.get(d) {
                Some(DimIdx::Var(c)) => {
                    if reduced_dims.contains(&d) {
                        return Err(FrontendError::NotTensorizable {
                            reason: format!("store index of {array} references reduced loop {d}"),
                        });
                    }
                    rect_iv.push((vlo, vhi));
                    offset.push(*c);
                }
                Some(DimIdx::Const(v)) => {
                    if vhi - vlo != 1 {
                        return Err(FrontendError::NotTensorizable {
                            reason: format!(
                                "store to a fixed coordinate of {array} in dim {d} races \
                                 across the unreduced iteration space"
                            ),
                        });
                    }
                    rect_iv.push((vlo, vhi));
                    offset.push(v - vlo);
                }
                None => {
                    if vhi - vlo != 1 {
                        return Err(FrontendError::NotTensorizable {
                            reason: format!(
                                "store to {array} (rank {}) races across unreduced lattice dim {d}",
                                dims.len()
                            ),
                        });
                    }
                    rect_iv.push((vlo, vhi));
                    offset.push(-vlo);
                }
            }
        }
        let rect = HyperRect::new(rect_iv).map_err(infs_tdfg::TdfgError::from)?;
        Ok(OutputTarget::Array {
            array,
            rect,
            array_offset: offset,
        })
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<(), FrontendError> {
        match stmt {
            Stmt::Assign {
                array,
                idx,
                value,
                reduce,
            } => {
                let v = self.lower_expr(value)?;
                let (v, reduced) = self.apply_reduce(v, reduce)?;
                let value_iv = self.reduced_target(&reduced);
                let target = self.store_target(*array, idx, &value_iv, &reduced)?;
                self.builder.output(v, target);
                Ok(())
            }
            Stmt::Accum {
                array,
                idx,
                op,
                value,
                reduce,
            } => {
                let v = self.lower_expr(value)?;
                let (v, reduced) = self.apply_reduce(v, reduce)?;
                let value_iv = self.reduced_target(&reduced);
                // Read the current target contents, aligned to the value.
                let current = self.lower_load(*array, idx, &value_iv)?;
                let combine = match op {
                    ReduceOp::Sum => ComputeOp::Add,
                    ReduceOp::Min => ComputeOp::Min,
                    ReduceOp::Max => ComputeOp::Max,
                };
                let key = Key::Compute(combine, vec![current.0, v.0]);
                let sum = self.memoize(key, |b| b.compute(combine, &[current, v]))?;
                let target = self.store_target(*array, idx, &value_iv, &reduced)?;
                self.builder.output(sum, target);
                Ok(())
            }
            Stmt::ScalarReduce { name, op, value } => {
                let v = self.lower_expr(value)?;
                let all: Vec<(crate::LoopVar, ReduceOp)> =
                    (0..self.ndim()).map(|d| (crate::LoopVar(d), *op)).collect();
                let (v, _) = self.apply_reduce(v, &all)?;
                self.builder.output(v, OutputTarget::scalar(name.clone()));
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{FrontendError, Idx, KernelBuilder, ScalarExpr};
    use infs_sdfg::{DataType, Memory, ReduceOp};
    use infs_tdfg::{ComputeOp, Node};
    use std::collections::HashMap;

    #[test]
    fn stencil_taps_become_mv_nodes() {
        // B[i] = A[i-1] + A[i] + A[i+1], i in [1, n-1)
        let n = 16u64;
        let mut k = KernelBuilder::new("stencil1d", DataType::F32);
        let a = k.array("A", vec![n]);
        let b = k.array("B", vec![n]);
        let i = k.parallel_loop("i", 1, n as i64 - 1);
        let e = ScalarExpr::add(
            ScalarExpr::add(
                ScalarExpr::load(a, vec![Idx::var_plus(i, -1)]),
                ScalarExpr::load(a, vec![Idx::var(i)]),
            ),
            ScalarExpr::load(a, vec![Idx::var_plus(i, 1)]),
        );
        k.assign(b, vec![Idx::var(i)], e);
        let kernel = k.build().unwrap();
        let g = kernel.tensorize(&[]).unwrap();

        let moves = g
            .nodes()
            .iter()
            .filter(|n| matches!(n, Node::Mv { .. }))
            .count();
        assert_eq!(moves, 2, "two shifted taps need explicit alignment:\n{g}");

        let av: Vec<f32> = (0..n).map(|x| (x * x) as f32).collect();
        let mut mem = Memory::for_arrays(g.arrays());
        mem.write_array(a, &av);
        infs_tdfg::interp::execute(&g, &mut mem, &[], &HashMap::new()).unwrap();
        for x in 1..(n as usize - 1) {
            assert_eq!(mem.array(b)[x], av[x - 1] + av[x] + av[x + 1]);
        }
    }

    #[test]
    fn repeated_refs_are_hash_consed() {
        // B[i] = A[i] * A[i]: one input tensor, one compute.
        let mut k = KernelBuilder::new("sq", DataType::F32);
        let a = k.array("A", vec![8]);
        let b = k.array("B", vec![8]);
        let i = k.parallel_loop("i", 0, 8);
        let e = ScalarExpr::mul(
            ScalarExpr::load(a, vec![Idx::var(i)]),
            ScalarExpr::load(a, vec![Idx::var(i)]),
        );
        k.assign(b, vec![Idx::var(i)], e);
        let g = k.build().unwrap().tensorize(&[]).unwrap();
        let inputs = g
            .nodes()
            .iter()
            .filter(|n| matches!(n, Node::Input { .. }))
            .count();
        assert_eq!(inputs, 1);
    }

    #[test]
    fn outer_product_broadcasts() {
        // C[m][n] += Acol[m] * Brow[n] for one k step (Fig 8, outer product).
        // Lattice: dim0 = n (contiguous in C), dim1 = m.
        let (m, n) = (4u64, 8u64);
        let mut kb = KernelBuilder::new("mm_outer_step", DataType::F32);
        let acol = kb.array("Acol", vec![1, m]); // thin in n
        let brow = kb.array("Brow", vec![n]); // 1-D over n
        let c = kb.array("C", vec![n, m]);
        let ln = kb.parallel_loop("n", 0, n as i64);
        let lm = kb.parallel_loop("m", 0, m as i64);
        let prod = ScalarExpr::mul(
            ScalarExpr::load(acol, vec![Idx::constant(0), Idx::var(lm)]),
            ScalarExpr::load(brow, vec![Idx::var(ln)]),
        );
        kb.accum(c, vec![Idx::var(ln), Idx::var(lm)], ReduceOp::Sum, prod);
        let g = kb.build().unwrap().tensorize(&[]).unwrap();

        let bcs = g
            .nodes()
            .iter()
            .filter(|x| matches!(x, Node::Bc { .. }))
            .count();
        assert_eq!(bcs, 2, "column and row both broadcast:\n{g}");

        let mut mem = Memory::for_arrays(g.arrays());
        let av: Vec<f32> = (0..m).map(|x| x as f32 + 1.0).collect();
        let bv: Vec<f32> = (0..n).map(|x| x as f32).collect();
        mem.write_array(acol, &av);
        mem.write_array(brow, &bv);
        mem.write_array(c, &vec![1.0; (m * n) as usize]);
        infs_tdfg::interp::execute(&g, &mut mem, &[], &HashMap::new()).unwrap();
        for (mm, &aval) in av.iter().enumerate() {
            for (nn, &bval) in bv.iter().enumerate() {
                let got = mem.array(c)[nn + mm * n as usize];
                assert_eq!(got, 1.0 + aval * bval, "C[{mm}][{nn}]");
            }
        }
    }

    #[test]
    fn inner_product_reduces() {
        // C[n][m] = sum_k A[k][m] * B[k][n]; lattice (k, m, n) with k reduced.
        let (m, n, kk) = (4u64, 4u64, 8u64);
        let mut kb = KernelBuilder::new("mm_inner", DataType::F32);
        let a = kb.array("A", vec![kk, m]);
        let b = kb.array("B", vec![kk, 1, n]);
        let c = kb.array("C", vec![1, m, n]);
        let lk = kb.parallel_loop("k", 0, kk as i64);
        let lm = kb.parallel_loop("m", 0, m as i64);
        let ln = kb.parallel_loop("n", 0, n as i64);
        let prod = ScalarExpr::mul(
            ScalarExpr::load(a, vec![Idx::var(lk), Idx::var(lm)]),
            ScalarExpr::load(b, vec![Idx::var(lk), Idx::constant(0), Idx::var(ln)]),
        );
        kb.assign_reduced(
            c,
            vec![Idx::constant(0), Idx::var(lm), Idx::var(ln)],
            prod,
            vec![(lk, ReduceOp::Sum)],
        );
        let g = kb.build().unwrap().tensorize(&[]).unwrap();
        assert!(g.nodes().iter().any(|x| matches!(x, Node::Reduce { .. })));

        let mut mem = Memory::for_arrays(g.arrays());
        let av: Vec<f32> = (0..kk * m).map(|x| (x % 5) as f32).collect();
        let bv: Vec<f32> = (0..kk * n).map(|x| (x % 3) as f32).collect();
        mem.write_array(a, &av);
        mem.write_array(b, &bv);
        infs_tdfg::interp::execute(&g, &mut mem, &[], &HashMap::new()).unwrap();
        for mi in 0..m as usize {
            for ni in 0..n as usize {
                let mut want = 0.0;
                for ki in 0..kk as usize {
                    want += av[ki + mi * kk as usize] * bv[ki + ni * kk as usize];
                }
                let got = mem.array(c)[mi + ni * m as usize];
                assert_eq!(got, want, "C[{ni}][{mi}]");
            }
        }
    }

    #[test]
    fn scalar_reduce_sums_iteration_space() {
        let mut kb = KernelBuilder::new("array_sum", DataType::F32);
        let a = kb.array("A", vec![32]);
        let i = kb.parallel_loop("i", 0, 32);
        kb.scalar_reduce("sum", ReduceOp::Sum, ScalarExpr::load(a, vec![Idx::var(i)]));
        let g = kb.build().unwrap().tensorize(&[]).unwrap();
        let mut mem = Memory::for_arrays(g.arrays());
        let av: Vec<f32> = (0..32).map(|x| x as f32).collect();
        mem.write_array(a, &av);
        let out = infs_tdfg::interp::execute(&g, &mut mem, &[], &HashMap::new()).unwrap();
        assert_eq!(out.scalar("sum"), Some(496.0));
    }

    #[test]
    fn sym_bound_instantiation() {
        // Gaussian-elimination-style shrinking region: i, j in [k+1, n).
        let mut kb = KernelBuilder::new("gauss_inner", DataType::F32);
        let n = kb.sym("n");
        let kv = kb.sym("k");
        let a = kb.array("A", vec![8, 8]);
        let j = kb.parallel_loop_bounds("j", Idx::sym_plus(kv, 1), Idx::sym(n));
        let _i = kb.parallel_loop_bounds("i", Idx::sym_plus(kv, 1), Idx::sym(n));
        let pivot_row = ScalarExpr::load(a, vec![Idx::var(j), Idx::sym(kv)]);
        kb.accum(
            a,
            vec![Idx::var(j), Idx::var(_i)],
            ReduceOp::Sum,
            ScalarExpr::un(ComputeOp::Neg, pivot_row),
        );
        let kernel = kb.build().unwrap();
        let g0 = kernel.tensorize(&[8, 0]).unwrap();
        let g5 = kernel.tensorize(&[8, 5]).unwrap();
        // The region shrinks as k grows.
        let d0 = g0.domain(g0.outputs()[0].node).unwrap().num_elements();
        let d5 = g5.domain(g5.outputs()[0].node).unwrap().num_elements();
        assert_eq!(d0, 49);
        assert_eq!(d5, 4);
    }

    #[test]
    fn indirect_refuses_tensorization() {
        let mut kb = KernelBuilder::new("gather", DataType::F32);
        let data = kb.array("data", vec![8]);
        let idx = kb.array_typed("idx", vec![4], DataType::I32);
        let out = kb.array("out", vec![4]);
        let i = kb.parallel_loop("i", 0, 4);
        let g = ScalarExpr::LoadIndirect {
            array: data,
            dim: 0,
            index: Box::new(ScalarExpr::load(idx, vec![Idx::var(i)])),
            rest: vec![Idx::constant(0)],
        };
        kb.assign(out, vec![Idx::var(i)], g);
        let kernel = kb.build().unwrap();
        assert!(matches!(
            kernel.tensorize(&[]),
            Err(FrontendError::NotTensorizable { .. })
        ));
    }

    #[test]
    fn strided_index_refuses_tensorization() {
        let mut kb = KernelBuilder::new("strided", DataType::F32);
        let a = kb.array("A", vec![16]);
        let i = kb.parallel_loop("i", 0, 8);
        kb.assign(
            a,
            vec![Idx::var(i)],
            ScalarExpr::load(a, vec![Idx::constant(0).plus_var(i, 2)]),
        );
        let kernel = kb.build().unwrap();
        assert!(matches!(
            kernel.tensorize(&[]),
            Err(FrontendError::NotTensorizable { .. })
        ));
    }
}
