//! Reference interpreter for stream dataflow graphs.
//!
//! Executes every stream sequentially over the loop domain against a functional
//! [`Memory`], producing scalar reduce outputs. This is the *golden semantics*
//! for near-memory execution: the simulator's near-L3 stream engines produce the
//! same values, and only differ in where/when the work happens.

use crate::{AccessFn, Memory, ReduceOp, Sdfg, SdfgError, StreamExpr, StreamId, StreamKind};

/// Scalar outputs of an sDFG execution (one per reduce stream, by name).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SdfgOutputs {
    scalars: Vec<(String, f32)>,
}

impl SdfgOutputs {
    /// The value of a named reduce output, if it exists.
    pub fn scalar(&self, name: &str) -> Option<f32> {
        self.scalars
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// All outputs in stream order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f32)> {
        self.scalars.iter().map(|(n, v)| (n.as_str(), *v))
    }
}

/// Per-iteration evaluation state, allocated once per execution and cleared
/// at the top of every iteration.
struct IterState {
    /// Loaded value per stream (None for non-loads or not-yet-loaded).
    stream_vals: Vec<Option<f32>>,
    /// Memoized expression values.
    expr_vals: Vec<Option<f32>>,
    /// Scratch for the coordinates of the access being resolved.
    coords: Vec<i64>,
}

/// Executes the graph sequentially and returns its scalar outputs.
///
/// `params` are the runtime parameters referenced by [`StreamExpr::Param`].
///
/// # Errors
///
/// Returns the first validation or out-of-bounds error encountered. Stores and
/// updates mutate `mem` in iteration order, so on error the memory reflects a
/// prefix of the execution.
pub fn execute(g: &Sdfg, mem: &mut Memory, params: &[f32]) -> Result<SdfgOutputs, SdfgError> {
    g.validate()?;
    let mut accumulators: Vec<f32> = g
        .streams()
        .iter()
        .map(|s| match s.kind {
            StreamKind::Reduce { op, .. } => op.identity(),
            _ => 0.0,
        })
        .collect();

    let trip = g.loop_trip();
    let total: u64 = trip.iter().product();
    let mut ivs = vec![0u64; trip.len()];
    let mut st = IterState {
        stream_vals: vec![None; g.streams().len()],
        expr_vals: vec![None; g.exprs().len()],
        coords: Vec::new(),
    };
    for _ in 0..total {
        st.stream_vals.fill(None);
        st.expr_vals.fill(None);
        // Loads first, in declaration order (indirect index streams are
        // validated to precede their consumers).
        for (i, s) in g.streams().iter().enumerate() {
            if matches!(s.kind, StreamKind::Load) {
                let access = s.access.as_ref().expect("loads have access patterns");
                resolve_coords(access, &ivs, &mut st)?;
                st.stream_vals[i] = Some(mem.read(access.array(), &st.coords)?);
            }
        }
        // Then effects, in declaration order.
        for (i, s) in g.streams().iter().enumerate() {
            match &s.kind {
                StreamKind::Load => {}
                StreamKind::Store { value } => {
                    let v = eval_expr(g, *value, &ivs, &mut st, params)?;
                    let access = s.access.as_ref().expect("stores have access patterns");
                    resolve_coords(access, &ivs, &mut st)?;
                    mem.write(access.array(), &st.coords, v)?;
                }
                StreamKind::Update { op, value } => {
                    let v = eval_expr(g, *value, &ivs, &mut st, params)?;
                    let access = s.access.as_ref().expect("updates have access patterns");
                    resolve_coords(access, &ivs, &mut st)?;
                    let old = mem.read(access.array(), &st.coords)?;
                    mem.write(access.array(), &st.coords, apply_update(*op, old, v))?;
                }
                StreamKind::Reduce { op, value } => {
                    let v = eval_expr(g, *value, &ivs, &mut st, params)?;
                    accumulators[i] = op.apply(accumulators[i], v);
                }
            }
        }
        // Advance induction variables, iv[0] fastest.
        for d in 0..trip.len() {
            ivs[d] += 1;
            if ivs[d] < trip[d] {
                break;
            }
            ivs[d] = 0;
        }
    }

    let scalars = g
        .streams()
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s.kind, StreamKind::Reduce { .. }))
        .map(|(i, s)| (s.name.clone(), accumulators[i]))
        .collect();
    Ok(SdfgOutputs { scalars })
}

fn apply_update(op: ReduceOp, old: f32, v: f32) -> f32 {
    op.apply(old, v)
}

/// Leaves the coordinates `access` addresses at `ivs` in `st.coords`.
fn resolve_coords(access: &AccessFn, ivs: &[u64], st: &mut IterState) -> Result<(), SdfgError> {
    match access {
        AccessFn::Affine(m) => m.eval_into(ivs, &mut st.coords),
        AccessFn::Indirect {
            index_stream,
            dim,
            rest,
            ..
        } => {
            rest.eval_into(ivs, &mut st.coords);
            let idx = stream_value(st, *index_stream)?;
            st.coords[*dim] = idx as i64;
        }
    }
    Ok(())
}

fn stream_value(st: &IterState, s: StreamId) -> Result<f32, SdfgError> {
    st.stream_vals
        .get(s.0 as usize)
        .copied()
        .flatten()
        .ok_or(SdfgError::UnknownStream(s))
}

fn eval_expr(
    g: &Sdfg,
    id: crate::ExprId,
    ivs: &[u64],
    st: &mut IterState,
    params: &[f32],
) -> Result<f32, SdfgError> {
    if let Some(v) = st.expr_vals[id.0 as usize] {
        return Ok(v);
    }
    let v = match &g.exprs()[id.0 as usize] {
        StreamExpr::StreamVal(s) => stream_value(st, *s)?,
        StreamExpr::Const(c) => *c,
        StreamExpr::Param(i) => *params.get(*i as usize).ok_or(SdfgError::MissingParam(*i))?,
        StreamExpr::LoopVar(k) => *ivs.get(*k as usize).ok_or(SdfgError::MissingParam(*k))? as f32,
        StreamExpr::Bin(op, a, b) => {
            let av = eval_expr(g, *a, ivs, st, params)?;
            let bv = eval_expr(g, *b, ivs, st, params)?;
            op.apply(av, bv)
        }
        StreamExpr::Un(op, a) => op.apply(eval_expr(g, *a, ivs, st, params)?),
        StreamExpr::Select(c, t, f) => {
            if eval_expr(g, *c, ivs, st, params)? != 0.0 {
                eval_expr(g, *t, ivs, st, params)?
            } else {
                eval_expr(g, *f, ivs, st, params)?
            }
        }
    };
    st.expr_vals[id.0 as usize] = Some(v);
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AffineMap, ArrayDecl, DataType};

    #[test]
    fn vector_add_c_equals_a_plus_b() {
        let n = 16;
        let mut g = Sdfg::new(vec![n]);
        let a = g.declare_array(ArrayDecl::new("a", vec![n], DataType::F32));
        let b = g.declare_array(ArrayDecl::new("b", vec![n], DataType::F32));
        let c = g.declare_array(ArrayDecl::new("c", vec![n], DataType::F32));
        let la = g.load(AccessFn::identity(a, 1));
        let lb = g.load(AccessFn::identity(b, 1));
        let va = g.stream_val(la);
        let vb = g.stream_val(lb);
        let sum = g.expr(StreamExpr::add(va, vb));
        g.store(AccessFn::identity(c, 1), sum);

        let mut mem = Memory::for_arrays(g.arrays());
        let av: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let bv: Vec<f32> = (0..n).map(|i| 2.0 * i as f32).collect();
        mem.write_array(a, &av);
        mem.write_array(b, &bv);
        execute(&g, &mut mem, &[]).unwrap();
        for i in 0..n as usize {
            assert_eq!(mem.array(c)[i], 3.0 * i as f32);
        }
    }

    #[test]
    fn reduce_stream_sums() {
        let mut g = Sdfg::new(vec![5]);
        let a = g.declare_array(ArrayDecl::new("a", vec![5], DataType::F32));
        let la = g.load(AccessFn::identity(a, 1));
        let v = g.stream_val(la);
        g.reduce("total", ReduceOp::Sum, v);
        let mut mem = Memory::for_arrays(g.arrays());
        mem.write_array(a, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        let out = execute(&g, &mut mem, &[]).unwrap();
        assert_eq!(out.scalar("total"), Some(15.0));
        assert_eq!(out.iter().count(), 1);
    }

    #[test]
    fn indirect_gather() {
        // g[i] = data[idx[i]]
        let mut g = Sdfg::new(vec![4]);
        let data = g.declare_array(ArrayDecl::new("data", vec![8], DataType::F32));
        let idx = g.declare_array(ArrayDecl::new("idx", vec![4], DataType::I32));
        let out = g.declare_array(ArrayDecl::new("out", vec![4], DataType::F32));
        let lidx = g.load(AccessFn::identity(idx, 1));
        let ldata = g.load(AccessFn::Indirect {
            array: data,
            index_stream: lidx,
            dim: 0,
            rest: AffineMap::identity(data, 1),
        });
        let v = g.stream_val(ldata);
        g.store(AccessFn::identity(out, 1), v);

        let mut mem = Memory::for_arrays(g.arrays());
        mem.write_array(data, &[10., 11., 12., 13., 14., 15., 16., 17.]);
        mem.write_array(idx, &[7.0, 0.0, 3.0, 3.0]);
        execute(&g, &mut mem, &[]).unwrap();
        assert_eq!(mem.array(out), &[17., 10., 13., 13.]);
    }

    #[test]
    fn indirect_update_histogram() {
        // hist[idx[i]] += 1
        let mut g = Sdfg::new(vec![6]);
        let idx = g.declare_array(ArrayDecl::new("idx", vec![6], DataType::I32));
        let hist = g.declare_array(ArrayDecl::new("hist", vec![3], DataType::F32));
        let lidx = g.load(AccessFn::identity(idx, 1));
        let one = g.expr(StreamExpr::Const(1.0));
        g.update(
            AccessFn::Indirect {
                array: hist,
                index_stream: lidx,
                dim: 0,
                rest: AffineMap {
                    array: hist,
                    offset: vec![0],
                    coeffs: vec![vec![0]],
                },
            },
            ReduceOp::Sum,
            one,
        );
        let mut mem = Memory::for_arrays(g.arrays());
        mem.write_array(idx, &[0., 1., 1., 2., 2., 2.]);
        execute(&g, &mut mem, &[]).unwrap();
        assert_eq!(mem.array(hist), &[1., 2., 3.]);
    }

    #[test]
    fn params_and_loop_vars() {
        // out[i] = p0 * i
        let mut g = Sdfg::new(vec![4]);
        let out = g.declare_array(ArrayDecl::new("out", vec![4], DataType::F32));
        let p = g.expr(StreamExpr::Param(0));
        let i = g.expr(StreamExpr::LoopVar(0));
        let v = g.expr(StreamExpr::mul(p, i));
        g.store(AccessFn::identity(out, 1), v);
        let mut mem = Memory::for_arrays(g.arrays());
        execute(&g, &mut mem, &[2.5]).unwrap();
        assert_eq!(mem.array(out), &[0.0, 2.5, 5.0, 7.5]);
    }

    #[test]
    fn missing_param_is_an_error() {
        let mut g = Sdfg::new(vec![1]);
        let out = g.declare_array(ArrayDecl::new("out", vec![1], DataType::F32));
        let p = g.expr(StreamExpr::Param(3));
        g.store(AccessFn::identity(out, 1), p);
        let mut mem = Memory::for_arrays(g.arrays());
        assert_eq!(
            execute(&g, &mut mem, &[]).unwrap_err(),
            SdfgError::MissingParam(3)
        );
    }

    #[test]
    fn two_d_loop_order_dim0_fastest() {
        // out[i][j] = 10*j + i visits in the right order.
        let mut g = Sdfg::new(vec![3, 2]);
        let out = g.declare_array(ArrayDecl::new("out", vec![3, 2], DataType::F32));
        let i = g.expr(StreamExpr::LoopVar(0));
        let j = g.expr(StreamExpr::LoopVar(1));
        let ten = g.expr(StreamExpr::Const(10.0));
        let tj = g.expr(StreamExpr::mul(ten, j));
        let v = g.expr(StreamExpr::add(tj, i));
        g.store(AccessFn::identity(out, 2), v);
        let mut mem = Memory::for_arrays(g.arrays());
        execute(&g, &mut mem, &[]).unwrap();
        assert_eq!(mem.array(out), &[0., 1., 2., 10., 11., 12.]);
    }

    #[test]
    fn out_of_bounds_reported() {
        let mut g = Sdfg::new(vec![4]);
        let a = g.declare_array(ArrayDecl::new("a", vec![2], DataType::F32));
        let la = g.load(AccessFn::identity(a, 1));
        let v = g.stream_val(la);
        g.reduce("x", ReduceOp::Sum, v);
        let mut mem = Memory::for_arrays(g.arrays());
        assert!(matches!(
            execute(&g, &mut mem, &[]),
            Err(SdfgError::OutOfBounds { .. })
        ));
    }

    /// An indirect access that leaves its array at iteration 2 of a 2-D
    /// table gather: the error names the array and the offending
    /// coordinates, iterations 0 and 1 have stored their rows, and nothing
    /// past them was touched.
    #[test]
    fn out_of_bounds_indirect_access_reports_where_and_keeps_the_prefix() {
        // out[i][j] = table[i][idx[j]] over i in [0,2), j in [0,4), i fastest.
        let mut g = Sdfg::new(vec![2, 4]);
        let table = g.declare_array(ArrayDecl::new("table", vec![2, 3], DataType::F32));
        let idx = g.declare_array(ArrayDecl::new("idx", vec![4], DataType::I32));
        let out = g.declare_array(ArrayDecl::new("out", vec![2, 4], DataType::F32));
        let lidx = g.load(AccessFn::Affine(AffineMap {
            array: idx,
            offset: vec![0],
            coeffs: vec![vec![0, 1]],
        }));
        let ltable = g.load(AccessFn::Indirect {
            array: table,
            index_stream: lidx,
            dim: 1,
            rest: AffineMap::identity(table, 2),
        });
        let v = g.stream_val(ltable);
        g.store(AccessFn::identity(out, 2), v);

        let mut mem = Memory::for_arrays(g.arrays());
        mem.write_array(table, &[10., 11., 20., 21., 30., 31.]);
        mem.write_array(idx, &[2.0, 0.0, 7.0, 1.0]);
        let before_out = [30., 31., 10., 11., 0., 0., 0., 0.];
        assert_eq!(
            execute(&g, &mut mem, &[]).unwrap_err(),
            SdfgError::OutOfBounds {
                array: table,
                coords: vec![0, 7],
            }
        );
        assert_eq!(mem.array(out), &before_out);
    }

    #[test]
    fn select_expression() {
        // out[i] = i < 2 ? 1 : -1
        let mut g = Sdfg::new(vec![4]);
        let out = g.declare_array(ArrayDecl::new("out", vec![4], DataType::F32));
        let i = g.expr(StreamExpr::LoopVar(0));
        let two = g.expr(StreamExpr::Const(2.0));
        let c = g.expr(StreamExpr::Bin(crate::BinOp::Lt, i, two));
        let pos = g.expr(StreamExpr::Const(1.0));
        let neg = g.expr(StreamExpr::Const(-1.0));
        let v = g.expr(StreamExpr::Select(c, pos, neg));
        g.store(AccessFn::identity(out, 1), v);
        let mut mem = Memory::for_arrays(g.arrays());
        execute(&g, &mut mem, &[]).unwrap();
        assert_eq!(mem.array(out), &[1., 1., -1., -1.]);
    }
}
