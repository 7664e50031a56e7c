//! The per-point interpreter this crate shipped before [`super::execute`]
//! started running whole rows, frozen as the oracle the executor is compared
//! against: memory, scalars and stream tensors must be `==` bit for bit.
//!
//! It is the old code verbatim. It has two callers — the `infs-check`
//! differential fuzzer and this crate's property tests — and no production
//! path may gain one: the product has one executor. An intentional change to
//! the *semantics* of a node must be made here too; a change that only makes
//! execution cheaper must not touch this file.

use super::{TdfgOutputs, TensorData};
use crate::{Node, NodeId, Output, OutputTarget, Tdfg, TdfgError};
use infs_sdfg::{Memory, ReduceOp};
use std::collections::HashMap;

/// Either a materialized tensor or an infinite uniform value.
#[derive(Debug, Clone)]
enum Val {
    Tensor(TensorData),
    Uniform(f32),
}

impl Val {
    fn get(&self, point: &[i64]) -> Option<f32> {
        match self {
            Val::Tensor(t) => t.get(point),
            Val::Uniform(v) => Some(*v),
        }
    }
}

/// Executes the graph against `mem`, returning scalar and stream outputs.
///
/// * `params` backs [`Node::Param`] references.
/// * `stream_inputs` supplies the tensors of [`Node::StreamIn`] nodes (produced
///   by near-memory streams in hybrid regions).
///
/// Array outputs are written into `mem`.
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
    let mut vals: Vec<Val> = Vec::with_capacity(g.nodes().len());
    for (i, n) in g.nodes().iter().enumerate() {
        let id = NodeId(i as u32);
        let v = match n {
            Node::Input {
                array,
                rect,
                array_offset,
            } => {
                let decl = &g.arrays()[array.0 as usize];
                let nd = decl.ndim();
                Val::Tensor(TensorData::from_fn(rect.clone(), |p| {
                    let coords: Vec<i64> = p
                        .iter()
                        .zip(array_offset)
                        .take(nd)
                        .map(|(&x, &o)| x + o)
                        .collect();
                    mem.read(*array, &coords)
                        .expect("validated input stays in bounds")
                }))
            }
            Node::ConstVal { value } => Val::Uniform(*value),
            Node::Param { index } => Val::Uniform(
                *params
                    .get(*index as usize)
                    .ok_or(TdfgError::MissingParam(*index))?,
            ),
            Node::Compute { op, inputs } => {
                match g.domain(id) {
                    Some(rect) => {
                        let rect = rect.clone();
                        let mut args = vec![0.0f32; inputs.len()];
                        Val::Tensor(TensorData::from_fn(rect, |p| {
                            for (k, x) in inputs.iter().enumerate() {
                                args[k] = vals[x.0 as usize]
                                    .get(p)
                                    .expect("compute domain is contained in input domains");
                            }
                            op.eval(&args)
                        }))
                    }
                    None => {
                        // All-constant compute: fold to a uniform.
                        let args: Vec<f32> = inputs
                            .iter()
                            .map(|x| {
                                vals[x.0 as usize]
                                    .get(&[])
                                    .expect("constant operands are uniform")
                            })
                            .collect();
                        Val::Uniform(op.eval(&args))
                    }
                }
            }
            Node::Mv { input, dim, dist } => {
                let rect = g.domain(id).expect("mv domains are finite").clone();
                let src = &vals[input.0 as usize];
                let (dim, dist) = (*dim, *dist);
                Val::Tensor(TensorData::from_fn(rect, |p| {
                    let mut q = p.to_vec();
                    q[dim] -= dist;
                    src.get(&q).expect("mv source point is in the input domain")
                }))
            }
            Node::Bc { input, dim, .. } => {
                let rect = g.domain(id).expect("bc domains are finite").clone();
                let src_rect = g.domain(*input).expect("bc inputs are finite");
                let src_coord = src_rect.start(*dim);
                let src = &vals[input.0 as usize];
                let dim = *dim;
                Val::Tensor(TensorData::from_fn(rect, |p| {
                    let mut q = p.to_vec();
                    q[dim] = src_coord;
                    src.get(&q).expect("bc source hyperplane covers the domain")
                }))
            }
            Node::Shrink { input, .. } => {
                let rect = g.domain(id).expect("shrink domains are finite").clone();
                let src = &vals[input.0 as usize];
                Val::Tensor(TensorData::from_fn(rect, |p| {
                    src.get(p).expect("shrink restricts the input domain")
                }))
            }
            Node::Reduce { input, dim, op } => {
                let rect = g.domain(id).expect("reduce domains are finite").clone();
                let src_rect = g.domain(*input).expect("reduce inputs are finite");
                let (lo, hi) = src_rect.interval(*dim);
                let src = &vals[input.0 as usize];
                let (dim, op) = (*dim, *op);
                Val::Tensor(TensorData::from_fn(rect, |p| {
                    let mut acc = op.identity();
                    let mut q = p.to_vec();
                    for c in lo..hi {
                        q[dim] = c;
                        acc = apply_reduce(op, acc, src.get(&q).expect("reduce range in domain"));
                    }
                    acc
                }))
            }
            Node::StreamIn { .. } => Val::Tensor(
                stream_inputs
                    .get(&id)
                    .cloned()
                    .ok_or(TdfgError::MissingStreamInput(id))?,
            ),
        };
        vals.push(v);
    }

    // Apply outputs.
    let mut out = TdfgOutputs::default();
    for Output { node, target } in g.outputs() {
        let v = &vals[node.0 as usize];
        match target {
            OutputTarget::Array {
                array,
                rect,
                array_offset,
            } => {
                let nd = g.arrays()[array.0 as usize].ndim();
                for p in rect.points() {
                    let coords: Vec<i64> = p
                        .iter()
                        .zip(array_offset)
                        .take(nd)
                        .map(|(&x, &o)| x + o)
                        .collect();
                    let val = v.get(&p).expect("output region is covered");
                    mem.write(*array, &coords, val)
                        .expect("validated output stays in bounds");
                }
            }
            OutputTarget::Scalar { name } => {
                let rect = g.domain(*node).expect("scalar outputs are finite");
                let p = rect.point_at(0);
                out.scalars
                    .push((name.clone(), v.get(&p).expect("single-element domain")));
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

fn apply_reduce(op: ReduceOp, acc: f32, x: f32) -> f32 {
    op.apply(acc, x)
}
