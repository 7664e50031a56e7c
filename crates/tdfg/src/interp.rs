//! Functional executor for tensor dataflow graphs.
//!
//! Evaluates every node over real `f32` data in SSA order — the golden
//! functional semantics that the e-graph optimizer must preserve and that the
//! simulator's in-memory command execution is checked against.
//!
//! A node runs as whole tensors, not points: its domain is walked as
//! contiguous dimension-0 rows ([`HyperRect::for_each_row`]), every operand's
//! offset is resolved once per row, and the row is one slice kernel — a copy
//! for the data-movement nodes, an element-wise loop with the operator chosen
//! outside it for `Compute`, an in-order accumulation for `Reduce`. Every
//! element still sees exactly the operator applications of the per-point
//! definition in [`mod@reference`], in the same order — nothing is reassociated,
//! tree-reduced or fused — so results are bitwise identical to it.

pub mod reference;

use crate::{ComputeOp, Node, NodeId, Output, OutputTarget, Tdfg, TdfgError};
use infs_geom::HyperRect;
use infs_sdfg::{ArrayDecl, Memory, ReduceOp, StreamId};
use std::collections::HashMap;

/// A materialized tensor: a domain rectangle and its values in
/// dimension-0-fastest order.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorData {
    rect: HyperRect,
    values: Vec<f32>,
}

impl TensorData {
    /// Creates a tensor from a rectangle and matching values.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rect.num_elements()`.
    pub fn new(rect: HyperRect, values: Vec<f32>) -> Self {
        assert_eq!(
            values.len() as u64,
            rect.num_elements(),
            "value count does not match domain size"
        );
        TensorData { rect, values }
    }

    /// Builds a tensor by evaluating `f` at every lattice point of `rect`.
    pub fn from_fn(rect: HyperRect, mut f: impl FnMut(&[i64]) -> f32) -> Self {
        let values = rect.points().map(|p| f(&p)).collect();
        TensorData { rect, values }
    }

    /// A tensor filled with one value.
    pub fn splat(rect: HyperRect, value: f32) -> Self {
        let n = rect.num_elements() as usize;
        TensorData {
            rect,
            values: vec![value; n],
        }
    }

    /// The tensor's domain.
    pub fn rect(&self) -> &HyperRect {
        &self.rect
    }

    /// The value at a lattice point, or `None` outside the domain.
    pub fn get(&self, point: &[i64]) -> Option<f32> {
        self.rect
            .linear_index(point)
            .map(|i| self.values[i as usize])
    }

    /// Raw values, dimension-0-fastest.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// The tensor as an operand read over `needed`.
    ///
    /// # Panics
    ///
    /// Panics with `why` unless the domain covers `needed` — the per-node
    /// form of the per-point `expect`s in [`mod@reference`].
    fn rows(&self, needed: &HyperRect, why: &str) -> (&[f32], Strided) {
        assert!(self.rect.contains_rect(needed), "{why}");
        (&self.values, Strided::of_rect(&self.rect))
    }
}

/// Either a materialized tensor or an infinite uniform value.
#[derive(Debug, Clone)]
enum Val {
    Tensor(TensorData),
    Uniform(f32),
}

/// Where lattice point `x` lives in a dimension-0-fastest buffer:
/// `base + Σ x[d] · strides[d]`. Shifts and broadcasts of an operand are
/// edits of `base` and `strides`, so one row walk serves every node kind.
struct Strided {
    base: i64,
    strides: Vec<i64>,
}

impl Strided {
    /// The addressing of a tensor laid out over `rect`.
    fn of_rect(rect: &HyperRect) -> Self {
        let mut stride = 1i64;
        let mut base = 0i64;
        let strides = rect
            .intervals()
            .iter()
            .map(|&(p, q)| {
                let s = stride;
                base -= p * s;
                stride *= q - p;
                s
            })
            .collect();
        Strided { base, strides }
    }

    /// The addressing of `rect` placed into an array at `offset` (array
    /// coordinate = lattice coordinate + offset, truncated to the array's
    /// rank).
    ///
    /// # Panics
    ///
    /// Panics with `why` if the region leaves the array.
    fn of_array(decl: &ArrayDecl, rect: &HyperRect, offset: &[i64], why: &str) -> Self {
        let mut stride = 1i64;
        let mut base = 0i64;
        let strides = rect
            .intervals()
            .iter()
            .enumerate()
            .map(|(d, &(p, q))| {
                let Some(&extent) = decl.shape.get(d) else {
                    return 0;
                };
                let off = offset.get(d).copied().unwrap_or(0);
                assert!(p + off >= 0 && q + off <= extent as i64, "{why}");
                let s = stride;
                base += off * s;
                stride *= extent as i64;
                s
            })
            .collect();
        Strided { base, strides }
    }

    /// Reads `x − dist·e_dim` wherever `self` read `x` (the source of a `mv`).
    fn shifted(mut self, dim: usize, dist: i64) -> Self {
        self.base -= dist * self.strides[dim];
        self
    }

    /// Reads coordinate `at` of `dim` whatever `x[dim]` is (the source of a
    /// `bc`).
    fn pinned(mut self, dim: usize, at: i64) -> Self {
        self.base += at * self.strides[dim];
        self.strides[dim] = 0;
        self
    }

    /// Buffer offset of lattice point `x`.
    fn at(&self, x: &[i64]) -> usize {
        let o = x
            .iter()
            .zip(&self.strides)
            .fold(self.base, |o, (&c, &s)| o + c * s);
        usize::try_from(o).expect("row starts inside the operand")
    }
}

/// Materializes `src` read through `at` over `rect`: one `copy_from_slice`
/// per row, or one splat where dimension 0 is broadcast.
fn gather(rect: &HyperRect, src: &[f32], at: &Strided) -> TensorData {
    let len = rect.row_len();
    let splat = at.strides.first() == Some(&0);
    let mut values = Vec::with_capacity(rect.num_elements() as usize);
    rect.for_each_row(|x| {
        let o = at.at(x);
        if splat {
            values.resize(values.len() + len, src[o]);
        } else {
            values.extend_from_slice(&src[o..o + len]);
        }
    });
    TensorData::new(rect.clone(), values)
}

/// One operand of a compute node: rows of a tensor, or a uniform value
/// spread over one constant row so that every kernel sees slices.
enum Operand<'a> {
    Rows(&'a [f32], Strided),
    Splat(Vec<f32>),
}

/// `dst[i] = f(args[0][i], …)` with the operands cut to `dst`'s length up
/// front, which leaves a loop LLVM can vectorise.
#[inline(always)]
fn lanes<const N: usize>(dst: &mut [f32], args: [&[f32]; N], f: impl Fn(&[f32; N]) -> f32) {
    let n = dst.len();
    let args = args.map(|a| &a[..n]);
    for (i, out) in dst.iter_mut().enumerate() {
        *out = f(&std::array::from_fn(|k| args[k][i]));
    }
}

/// Runs one row of a compute node. The operator is matched here, outside the
/// element loop, and each arm calls [`ComputeOp::eval`] on a constant — the
/// same call per element as the per-point definition, specialised.
fn compute_row<const N: usize>(op: ComputeOp, dst: &mut [f32], args: [&[f32]; N]) {
    macro_rules! arms {
        ($($name:ident),+) => {
            match op {
                $(ComputeOp::$name => lanes(dst, args, |v| ComputeOp::$name.eval(v)),)+
            }
        };
    }
    arms!(Add, Sub, Mul, Div, Min, Max, Neg, Abs, Sqrt, Relu, CmpLt, CmpLe, CmpEq, Select, Copy)
}

fn compute<const N: usize>(op: ComputeOp, rect: &HyperRect, operands: &[Operand]) -> TensorData {
    let operands: &[Operand; N] = operands.try_into().expect("arity matches the kernel");
    let len = rect.row_len();
    let mut values = vec![0.0f32; rect.num_elements() as usize];
    let mut done = 0;
    rect.for_each_row(|x| {
        let args: [&[f32]; N] = std::array::from_fn(|k| match &operands[k] {
            Operand::Rows(data, at) => {
                let o = at.at(x);
                &data[o..o + len]
            }
            Operand::Splat(row) => &row[..],
        });
        compute_row(op, &mut values[done..done + len], args);
        done += len;
    });
    TensorData::new(rect.clone(), values)
}

/// Reduces `src` (read through `at`, `steps` coordinates along `dim`) into
/// `rect`. Every output element starts from the identity and takes its
/// inputs in ascending coordinate order, exactly as the per-point fold does:
/// along dimension 0 that is a sequential fold of each source run, along any
/// other dimension an accumulation of whole rows.
fn reduce(
    op: ReduceOp,
    rect: &HyperRect,
    src: &[f32],
    at: &Strided,
    dim: usize,
    steps: usize,
) -> TensorData {
    fn go(
        rect: &HyperRect,
        src: &[f32],
        at: &Strided,
        dim: usize,
        steps: usize,
        identity: f32,
        f: impl Fn(f32, f32) -> f32,
    ) -> Vec<f32> {
        let len = rect.row_len();
        let mut values = vec![identity; rect.num_elements() as usize];
        let mut done = 0;
        rect.for_each_row(|x| {
            let dst = &mut values[done..done + len];
            done += len;
            let mut o = at.at(x);
            if dim == 0 {
                dst[0] = src[o..o + steps].iter().fold(identity, |acc, &v| f(acc, v));
            } else {
                for _ in 0..steps {
                    for (acc, &v) in dst.iter_mut().zip(&src[o..o + len]) {
                        *acc = f(*acc, v);
                    }
                    o += at.strides[dim] as usize;
                }
            }
        });
        values
    }
    let id = op.identity();
    // Matched here, outside every loop, for the same reason as `compute_row`.
    let values = match op {
        ReduceOp::Sum => go(rect, src, at, dim, steps, id, |a, v| {
            ReduceOp::Sum.apply(a, v)
        }),
        ReduceOp::Min => go(rect, src, at, dim, steps, id, |a, v| {
            ReduceOp::Min.apply(a, v)
        }),
        ReduceOp::Max => go(rect, src, at, dim, steps, id, |a, v| {
            ReduceOp::Max.apply(a, v)
        }),
    };
    TensorData::new(rect.clone(), values)
}

/// Results of executing a tDFG: named scalars plus tensors handed to
/// near-memory consumer streams.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TdfgOutputs {
    /// Named scalar results.
    pub scalars: Vec<(String, f32)>,
    /// Tensors produced for `OutputTarget::Stream` consumers.
    pub stream_outputs: Vec<(StreamId, TensorData)>,
}

impl TdfgOutputs {
    /// Looks up a named scalar result.
    pub fn scalar(&self, name: &str) -> Option<f32> {
        self.scalars
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Executes the graph against `mem`, returning scalar and stream outputs.
///
/// * `params` backs [`Node::Param`] references.
/// * `stream_inputs` supplies the tensors of [`Node::StreamIn`] nodes (produced
///   by near-memory streams in hybrid regions).
///
/// Array outputs are written into `mem`. A node's value is dropped after the
/// last node or output that reads it.
///
/// # Errors
///
/// Returns [`TdfgError::MissingParam`] / [`TdfgError::MissingStreamInput`] for
/// absent runtime inputs; array accesses cannot fail because the graph was
/// validated at build time.
pub fn execute(
    g: &Tdfg,
    mem: &mut Memory,
    params: &[f32],
    stream_inputs: &HashMap<NodeId, TensorData>,
) -> Result<TdfgOutputs, TdfgError> {
    let nodes = g.nodes();
    // The last reader of every node: a later node, the output pass
    // (`nodes.len()`), or — for a value nothing reads — the node itself.
    let mut last_use: Vec<usize> = (0..nodes.len()).collect();
    for (i, n) in nodes.iter().enumerate() {
        for x in n.inputs() {
            last_use[x.0 as usize] = i;
        }
    }
    for out in g.outputs() {
        last_use[out.node.0 as usize] = nodes.len();
    }

    let mut vals: Vec<Option<Val>> = Vec::with_capacity(nodes.len());
    for (i, n) in nodes.iter().enumerate() {
        let id = NodeId(i as u32);
        let val = |x: &NodeId| -> &Val {
            vals[x.0 as usize]
                .as_ref()
                .expect("operands live until their last reader")
        };
        let rows = |x: &NodeId, needed: &HyperRect, why: &str| -> (&[f32], Strided) {
            match val(x) {
                Val::Tensor(t) => t.rows(needed, why),
                Val::Uniform(_) => panic!("{why}"),
            }
        };
        let v = match n {
            Node::Input {
                array,
                rect,
                array_offset,
            } => {
                let decl = mem.decl(*array).expect("validated input names an array");
                let at =
                    Strided::of_array(decl, rect, array_offset, "validated input stays in bounds");
                Val::Tensor(gather(rect, mem.array(*array), &at))
            }
            Node::ConstVal { value } => Val::Uniform(*value),
            Node::Param { index } => Val::Uniform(
                *params
                    .get(*index as usize)
                    .ok_or(TdfgError::MissingParam(*index))?,
            ),
            Node::Compute { op, inputs } => match g.domain(id) {
                Some(rect) => {
                    let operands: Vec<Operand> = inputs
                        .iter()
                        .map(|x| match val(x) {
                            Val::Tensor(t) => {
                                let (data, at) =
                                    t.rows(rect, "compute domain is contained in input domains");
                                Operand::Rows(data, at)
                            }
                            Val::Uniform(u) => Operand::Splat(vec![*u; rect.row_len()]),
                        })
                        .collect();
                    Val::Tensor(match inputs.len() {
                        1 => compute::<1>(*op, rect, &operands),
                        2 => compute::<2>(*op, rect, &operands),
                        3 => compute::<3>(*op, rect, &operands),
                        n => panic!("wrong arity for {op}: {n} operands"),
                    })
                }
                None => {
                    // All-constant compute: fold to a uniform.
                    let args: Vec<f32> = inputs
                        .iter()
                        .map(|x| match val(x) {
                            Val::Uniform(u) => *u,
                            Val::Tensor(_) => panic!("constant operands are uniform"),
                        })
                        .collect();
                    Val::Uniform(op.eval(&args))
                }
            },
            Node::Mv { input, dim, dist } => {
                let rect = g.domain(id).expect("mv domains are finite");
                let needed = rect
                    .translated(*dim, -*dist)
                    .expect("mv dimension is in range");
                let (data, at) = rows(input, &needed, "mv source point is in the input domain");
                Val::Tensor(gather(rect, data, &at.shifted(*dim, *dist)))
            }
            Node::Bc { input, dim, .. } => {
                let rect = g.domain(id).expect("bc domains are finite");
                let src_coord = g.domain(*input).expect("bc inputs are finite").start(*dim);
                let needed = rect
                    .with_interval(*dim, src_coord, src_coord + 1)
                    .expect("bc dimension is in range");
                let (data, at) = rows(input, &needed, "bc source hyperplane covers the domain");
                Val::Tensor(gather(rect, data, &at.pinned(*dim, src_coord)))
            }
            Node::Shrink { input, .. } => {
                let rect = g.domain(id).expect("shrink domains are finite");
                let (data, at) = rows(input, rect, "shrink restricts the input domain");
                Val::Tensor(gather(rect, data, &at))
            }
            Node::Reduce { input, dim, op } => {
                let rect = g.domain(id).expect("reduce domains are finite");
                let src_rect = g.domain(*input).expect("reduce inputs are finite");
                let (lo, hi) = src_rect.interval(*dim);
                let needed = rect
                    .with_interval(*dim, lo, hi)
                    .expect("reduce dimension is in range");
                let (data, at) = rows(input, &needed, "reduce range in domain");
                // The output sits at coordinate `lo` of `dim`, so its rows
                // start where the first step reads.
                Val::Tensor(reduce(*op, rect, data, &at, *dim, (hi - lo) as usize))
            }
            Node::StreamIn { .. } => Val::Tensor(
                stream_inputs
                    .get(&id)
                    .cloned()
                    .ok_or(TdfgError::MissingStreamInput(id))?,
            ),
        };
        vals.push(Some(v));
        for x in n.inputs().into_iter().chain([id]) {
            if last_use[x.0 as usize] == i {
                vals[x.0 as usize] = None;
            }
        }
    }

    // Apply outputs.
    let mut out = TdfgOutputs::default();
    for Output { node, target } in g.outputs() {
        let v = vals[node.0 as usize]
            .as_ref()
            .expect("output values live to the end");
        match target {
            OutputTarget::Array {
                array,
                rect,
                array_offset,
            } => {
                let decl = mem.decl(*array).expect("validated output names an array");
                let to =
                    Strided::of_array(decl, rect, array_offset, "validated output stays in bounds");
                let len = rect.row_len();
                let dst = mem.array_mut(*array);
                match v {
                    Val::Tensor(t) => {
                        let (data, from) = t.rows(rect, "output region is covered");
                        rect.for_each_row(|x| {
                            let (d, s) = (to.at(x), from.at(x));
                            dst[d..d + len].copy_from_slice(&data[s..s + len]);
                        });
                    }
                    Val::Uniform(u) => rect.for_each_row(|x| {
                        let d = to.at(x);
                        dst[d..d + len].fill(*u);
                    }),
                }
            }
            OutputTarget::Scalar { name } => {
                let rect = g.domain(*node).expect("scalar outputs are finite");
                let only: Vec<i64> = rect.intervals().iter().map(|&(p, _)| p).collect();
                let value = match v {
                    Val::Tensor(t) => t.get(&only).expect("single-element domain"),
                    Val::Uniform(u) => *u,
                };
                out.scalars.push((name.clone(), value));
            }
            OutputTarget::Stream { stream } => {
                let t = match v {
                    Val::Tensor(t) => t.clone(),
                    Val::Uniform(u) => TensorData::splat(
                        g.domain(*node).expect("stream outputs are finite").clone(),
                        *u,
                    ),
                };
                out.stream_outputs.push((*stream, t));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ComputeOp, TdfgBuilder};
    use infs_sdfg::{ArrayDecl, DataType};

    fn rect(iv: &[(i64, i64)]) -> HyperRect {
        HyperRect::new(iv.to_vec()).unwrap()
    }

    #[test]
    fn vector_add() {
        let mut b = TdfgBuilder::new(1, DataType::F32);
        let a = b.declare_array(ArrayDecl::new("A", vec![4], DataType::F32));
        let c = b.declare_array(ArrayDecl::new("B", vec![4], DataType::F32));
        let d = b.declare_array(ArrayDecl::new("C", vec![4], DataType::F32));
        let x = b.input(a, rect(&[(0, 4)])).unwrap();
        let y = b.input(c, rect(&[(0, 4)])).unwrap();
        let s = b.compute(ComputeOp::Add, &[x, y]).unwrap();
        b.output(s, OutputTarget::array(d, rect(&[(0, 4)])));
        let g = b.build().unwrap();
        let mut mem = Memory::for_arrays(g.arrays());
        mem.write_array(a, &[1., 2., 3., 4.]);
        mem.write_array(c, &[10., 20., 30., 40.]);
        execute(&g, &mut mem, &[], &HashMap::new()).unwrap();
        assert_eq!(mem.array(d), &[11., 22., 33., 44.]);
    }

    #[test]
    fn stencil_with_moves_matches_scalar() {
        // B[i] = A[i-1] + A[i] + A[i+1], i in [1, 7)
        let n = 8i64;
        let mut b = TdfgBuilder::new(1, DataType::F32);
        let a = b.declare_array(ArrayDecl::new("A", vec![n as u64], DataType::F32));
        let out = b.declare_array(ArrayDecl::new("B", vec![n as u64], DataType::F32));
        let left = b.input(a, rect(&[(0, n - 2)])).unwrap();
        let mid = b.input(a, rect(&[(1, n - 1)])).unwrap();
        let right = b.input(a, rect(&[(2, n)])).unwrap();
        let lm = b.mv(left, 0, 1).unwrap();
        let rm = b.mv(right, 0, -1).unwrap();
        let s1 = b.compute(ComputeOp::Add, &[lm, mid]).unwrap();
        let s2 = b.compute(ComputeOp::Add, &[s1, rm]).unwrap();
        b.output(s2, OutputTarget::array(out, rect(&[(1, n - 1)])));
        let g = b.build().unwrap();

        let av: Vec<f32> = (0..n).map(|i| (i * i) as f32).collect();
        let mut mem = Memory::for_arrays(g.arrays());
        mem.write_array(a, &av);
        execute(&g, &mut mem, &[], &HashMap::new()).unwrap();
        for i in 1..(n - 1) as usize {
            assert_eq!(mem.array(out)[i], av[i - 1] + av[i] + av[i + 1], "i={i}");
        }
    }

    #[test]
    fn broadcast_column_times_matrix() {
        // out[i][j] = col[i] * m[i][j] with col broadcast along dim 1.
        let mut b = TdfgBuilder::new(2, DataType::F32);
        let col = b.declare_array(ArrayDecl::new("col", vec![2, 1], DataType::F32));
        let m = b.declare_array(ArrayDecl::new("m", vec![2, 3], DataType::F32));
        let out = b.declare_array(ArrayDecl::new("out", vec![2, 3], DataType::F32));
        let c = b.input(col, rect(&[(0, 2), (0, 1)])).unwrap();
        let cb = b.bc(c, 1, 0, 3).unwrap();
        let mm = b.input(m, rect(&[(0, 2), (0, 3)])).unwrap();
        let prod = b.compute(ComputeOp::Mul, &[cb, mm]).unwrap();
        b.output(prod, OutputTarget::array(out, rect(&[(0, 2), (0, 3)])));
        let g = b.build().unwrap();
        let mut mem = Memory::for_arrays(g.arrays());
        mem.write_array(col, &[2., 3.]);
        mem.write_array(m, &[1., 1., 2., 2., 3., 3.]); // dim0-fastest
        execute(&g, &mut mem, &[], &HashMap::new()).unwrap();
        assert_eq!(mem.array(out), &[2., 3., 4., 6., 6., 9.]);
    }

    #[test]
    fn reduce_to_scalar() {
        let mut b = TdfgBuilder::new(1, DataType::F32);
        let a = b.declare_array(ArrayDecl::new("A", vec![6], DataType::F32));
        let x = b.input(a, rect(&[(0, 6)])).unwrap();
        let r = b.reduce(x, 0, ReduceOp::Sum).unwrap();
        b.output(r, OutputTarget::scalar("sum"));
        let g = b.build().unwrap();
        let mut mem = Memory::for_arrays(g.arrays());
        mem.write_array(a, &[1., 2., 3., 4., 5., 6.]);
        let out = execute(&g, &mut mem, &[], &HashMap::new()).unwrap();
        assert_eq!(out.scalar("sum"), Some(21.0));
    }

    #[test]
    fn reduce_min_max_over_dim1() {
        let mut b = TdfgBuilder::new(2, DataType::F32);
        let a = b.declare_array(ArrayDecl::new("A", vec![2, 3], DataType::F32));
        let o = b.declare_array(ArrayDecl::new("O", vec![2, 1], DataType::F32));
        let x = b.input(a, rect(&[(0, 2), (0, 3)])).unwrap();
        let r = b.reduce(x, 1, ReduceOp::Max).unwrap();
        b.output(r, OutputTarget::array(o, rect(&[(0, 2), (0, 1)])));
        let g = b.build().unwrap();
        let mut mem = Memory::for_arrays(g.arrays());
        mem.write_array(a, &[1., 9., 5., 2., 3., 8.]);
        execute(&g, &mut mem, &[], &HashMap::new()).unwrap();
        assert_eq!(mem.array(o), &[5., 9.]);
    }

    #[test]
    fn param_scales_tensor() {
        let mut b = TdfgBuilder::new(1, DataType::F32);
        let a = b.declare_array(ArrayDecl::new("A", vec![3], DataType::F32));
        let x = b.input(a, rect(&[(0, 3)])).unwrap();
        let p = b.param(0);
        let m = b.compute(ComputeOp::Mul, &[x, p]).unwrap();
        b.output(m, OutputTarget::array(a, rect(&[(0, 3)])));
        let g = b.build().unwrap();
        let mut mem = Memory::for_arrays(g.arrays());
        mem.write_array(a, &[1., 2., 3.]);
        execute(&g, &mut mem, &[4.0], &HashMap::new()).unwrap();
        assert_eq!(mem.array(a), &[4., 8., 12.]);

        let mut mem2 = Memory::for_arrays(g.arrays());
        assert_eq!(
            execute(&g, &mut mem2, &[], &HashMap::new()).unwrap_err(),
            TdfgError::MissingParam(0)
        );
    }

    #[test]
    fn stream_in_supplies_tensor() {
        let mut b = TdfgBuilder::new(1, DataType::F32);
        let a = b.declare_array(ArrayDecl::new("A", vec![4], DataType::F32));
        let s = b.stream_in(StreamId(0), rect(&[(0, 4)])).unwrap();
        let x = b.input(a, rect(&[(0, 4)])).unwrap();
        let sum = b.compute(ComputeOp::Add, &[s, x]).unwrap();
        b.output(sum, OutputTarget::array(a, rect(&[(0, 4)])));
        let g = b.build().unwrap();
        let mut mem = Memory::for_arrays(g.arrays());
        mem.write_array(a, &[1., 1., 1., 1.]);
        let mut ins = HashMap::new();
        ins.insert(
            s,
            TensorData::new(rect(&[(0, 4)]), vec![10., 20., 30., 40.]),
        );
        execute(&g, &mut mem, &[], &ins).unwrap();
        assert_eq!(mem.array(a), &[11., 21., 31., 41.]);

        let mut mem2 = Memory::for_arrays(g.arrays());
        assert_eq!(
            execute(&g, &mut mem2, &[], &HashMap::new()).unwrap_err(),
            TdfgError::MissingStreamInput(s)
        );
    }

    #[test]
    fn stream_output_tensor_is_returned() {
        let mut b = TdfgBuilder::new(1, DataType::F32);
        let a = b.declare_array(ArrayDecl::new("A", vec![3], DataType::F32));
        let x = b.input(a, rect(&[(0, 3)])).unwrap();
        let n = b.compute(ComputeOp::Neg, &[x]).unwrap();
        b.output(n, OutputTarget::stream(StreamId(7)));
        let g = b.build().unwrap();
        let mut mem = Memory::for_arrays(g.arrays());
        mem.write_array(a, &[1., 2., 3.]);
        let out = execute(&g, &mut mem, &[], &HashMap::new()).unwrap();
        assert_eq!(out.stream_outputs.len(), 1);
        assert_eq!(out.stream_outputs[0].0, StreamId(7));
        assert_eq!(out.stream_outputs[0].1.values(), &[-1., -2., -3.]);
    }

    #[test]
    fn constant_fold_to_uniform_output() {
        let mut b = TdfgBuilder::new(1, DataType::F32);
        let a = b.declare_array(ArrayDecl::new("A", vec![4], DataType::F32));
        let c1 = b.constant(2.0);
        let c2 = b.constant(3.0);
        let m = b.compute(ComputeOp::Mul, &[c1, c2]).unwrap();
        b.output(m, OutputTarget::array(a, rect(&[(0, 4)])));
        let g = b.build().unwrap();
        let mut mem = Memory::for_arrays(g.arrays());
        execute(&g, &mut mem, &[], &HashMap::new()).unwrap();
        assert_eq!(mem.array(a), &[6., 6., 6., 6.]);
    }

    #[test]
    fn select_mask_pattern() {
        // out = (a < b) ? a : b  == min(a, b)
        let mut b = TdfgBuilder::new(1, DataType::F32);
        let arr_a = b.declare_array(ArrayDecl::new("A", vec![4], DataType::F32));
        let arr_b = b.declare_array(ArrayDecl::new("B", vec![4], DataType::F32));
        let o = b.declare_array(ArrayDecl::new("O", vec![4], DataType::F32));
        let x = b.input(arr_a, rect(&[(0, 4)])).unwrap();
        let y = b.input(arr_b, rect(&[(0, 4)])).unwrap();
        let c = b.compute(ComputeOp::CmpLt, &[x, y]).unwrap();
        let s = b.compute(ComputeOp::Select, &[c, x, y]).unwrap();
        b.output(s, OutputTarget::array(o, rect(&[(0, 4)])));
        let g = b.build().unwrap();
        let mut mem = Memory::for_arrays(g.arrays());
        mem.write_array(arr_a, &[1., 5., 2., 9.]);
        mem.write_array(arr_b, &[3., 3., 3., 3.]);
        execute(&g, &mut mem, &[], &HashMap::new()).unwrap();
        assert_eq!(mem.array(o), &[1., 3., 2., 3.]);
    }

    #[test]
    fn tensor_data_accessors() {
        let t = TensorData::new(rect(&[(0, 2), (0, 2)]), vec![1., 2., 3., 4.]);
        assert_eq!(t.get(&[1, 0]), Some(2.0));
        assert_eq!(t.get(&[2, 0]), None);
        assert_eq!(t.rect().num_elements(), 4);
        let s = TensorData::splat(rect(&[(0, 3)]), 7.0);
        assert_eq!(s.values(), &[7., 7., 7.]);
    }
}
