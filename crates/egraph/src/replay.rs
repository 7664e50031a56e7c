//! Reusing one optimization's result for another graph.
//!
//! A region compiled at one symbol binding and entered at another tensorizes
//! to a graph that often differs from the compiled one only in its output
//! targets (a row-selecting kernel writes another row) or its bounding box.
//! The bounding box enters optimization in exactly one way: movement and
//! broadcast rectangles are clipped to it. When every such clip answers the
//! same for the new graph, saturation adds the same nodes with the same
//! domains, the costs are the same, and extraction makes the same choices, so
//! the recorded result is the new graph's result up to its output targets.

use crate::{all_rules, run, CostParams, SaturationLimits};
use infs_geom::HyperRect;
use infs_tdfg::{Node, Output, Tdfg, TdfgError};

/// What [`OptimizeRecord::replay`] needs to reuse an optimization's result:
/// the optimizer's input, its cost parameters, and the hull of every
/// rectangle saturation clipped to the input's bounding box.
#[derive(Debug, Clone)]
pub struct OptimizeRecord {
    input: Tdfg,
    params: CostParams,
    clip_hull: Option<HyperRect>,
}

/// [`optimize`](crate::optimize), also returning the record that lets
/// [`OptimizeRecord::replay`] reuse the result for other graphs.
///
/// # Errors
///
/// See [`optimize`](crate::optimize).
pub fn optimize_recorded(
    g: &Tdfg,
    params: &CostParams,
) -> Result<(Tdfg, OptimizeRecord), TdfgError> {
    let (optimized, clip_hull) = run(g, params, SaturationLimits::default(), &all_rules())?;
    let record = OptimizeRecord {
        input: g.clone(),
        params: *params,
        clip_hull,
    };
    Ok((optimized, record))
}

impl OptimizeRecord {
    /// `optimize(g, params)`, rebuilt from `optimized` (the graph
    /// [`optimize_recorded`] returned with this record) when the optimizer
    /// provably makes the same choices on `g` as on the recorded input;
    /// `None` when it might not.
    ///
    /// The choices are the same when `params` are the recorded ones, `g` has
    /// the input's lattice rank, element type, arrays and nodes (constants
    /// compared by bits), its outputs read the same nodes, and
    /// `hull ∩ bounding` is the same for both graphs: each clipped rectangle
    /// lies inside the hull, so each clip answers the same. Only the output
    /// targets then differ, and extraction copies those from its input.
    /// Debug builds also optimize `g` in full and assert that the two graphs
    /// agree.
    pub fn replay(
        &self,
        g: &Tdfg,
        params: &CostParams,
        optimized: &Tdfg,
    ) -> Option<Result<Tdfg, TdfgError>> {
        if *params != self.params || !self.replays_on(g) {
            return None;
        }
        let outputs = optimized
            .outputs()
            .iter()
            .zip(g.outputs())
            .map(|(o, new)| Output {
                node: o.node,
                target: new.target.clone(),
            })
            .collect();
        let replayed = optimized.with_outputs(outputs);
        #[cfg(debug_assertions)]
        match (&replayed, crate::optimize(g, params)) {
            (Ok(r), Ok(full)) => assert!(
                same_graph(r, &full),
                "a replayed optimization differs from a full one:\n{r}\n{full}"
            ),
            (r, full) => assert_eq!(r, &full, "a replayed optimization failed differently"),
        }
        Some(replayed)
    }

    fn replays_on(&self, g: &Tdfg) -> bool {
        let input = &self.input;
        same_body(input, g)
            && input
                .outputs()
                .iter()
                .map(|o| o.node)
                .eq(g.outputs().iter().map(|o| o.node))
            && self.clip_hull.as_ref().is_none_or(|h| {
                matches!(
                    (h.intersect(input.bounding()), h.intersect(g.bounding())),
                    (Ok(a), Ok(b)) if a == b
                )
            })
    }
}

/// Same lattice rank, element type, arrays and nodes, with constants
/// compared by bits (`-0.0` is not `0.0`, and a NaN is itself).
fn same_body(a: &Tdfg, b: &Tdfg) -> bool {
    a.ndim() == b.ndim()
        && a.dtype() == b.dtype()
        && a.arrays() == b.arrays()
        && a.nodes().len() == b.nodes().len()
        && a.nodes().iter().zip(b.nodes()).all(|pair| match pair {
            (Node::ConstVal { value: x }, Node::ConstVal { value: y }) => {
                x.to_bits() == y.to_bits()
            }
            (x, y) => x == y,
        })
}

/// Bit-for-bit the same graph: the body and the outputs (domains and the
/// bounding box follow from those).
#[cfg(any(debug_assertions, test))]
fn same_graph(a: &Tdfg, b: &Tdfg) -> bool {
    same_body(a, b) && a.outputs() == b.outputs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use infs_sdfg::{ArrayDecl, DataType};
    use infs_tdfg::{ComputeOp, OutputTarget, TdfgBuilder};

    /// `B[i + off] = A[i] + A[i − 1]` over `i ∈ [1, 8)`: the nodes never
    /// change, but `B`'s lattice box, and so the bounding box, slides with
    /// `off`. The move of `A[0, 8)` by one reaches lattice cell 8.
    fn shifted_sum(off: i64) -> Tdfg {
        let mut b = TdfgBuilder::new(1, DataType::F32);
        let a = b.declare_array(ArrayDecl::new("A", vec![8], DataType::F32));
        let out = b.declare_array(ArrayDecl::new("B", vec![16], DataType::F32));
        let x = b.input(a, HyperRect::new(vec![(0, 8)]).unwrap()).unwrap();
        let y = b.mv(x, 0, 1).unwrap();
        let s = b.compute(ComputeOp::Add, &[x, y]).unwrap();
        b.output(
            s,
            OutputTarget::Array {
                array: out,
                rect: HyperRect::new(vec![(1, 8)]).unwrap(),
                array_offset: vec![off],
            },
        );
        b.build().unwrap()
    }

    #[test]
    fn replays_only_where_every_clip_answers_the_same() {
        let params = CostParams::default();
        let (optimized, record) = optimize_recorded(&shifted_sum(0), &params).unwrap();
        assert!(record.clip_hull.is_some(), "the move was clipped");
        // Bounding [-2, 14) still holds lattice cell 8: the replay is taken,
        // and is what a full optimization of the new graph returns.
        let g = shifted_sum(2);
        let replayed = record.replay(&g, &params, &optimized).unwrap().unwrap();
        assert!(same_graph(
            &replayed,
            &crate::optimize(&g, &params).unwrap()
        ));
        assert_eq!(replayed.outputs()[0].target, g.outputs()[0].target);
        // Bounding [-8, 8) cuts the move at 8: refused.
        assert!(record
            .replay(&shifted_sum(8), &params, &optimized)
            .is_none());
        // Other cost parameters: refused.
        let other = CostParams {
            mv_fixed: 1.0,
            ..params
        };
        assert!(record.replay(&g, &other, &optimized).is_none());
    }

    #[test]
    fn constants_are_compared_by_bits() {
        let graph = |v: f32| {
            let mut b = TdfgBuilder::new(1, DataType::F32);
            let a = b.declare_array(ArrayDecl::new("A", vec![8], DataType::F32));
            let x = b.input(a, HyperRect::new(vec![(0, 8)]).unwrap()).unwrap();
            let c = b.constant(v);
            let m = b.compute(ComputeOp::Mul, &[x, c]).unwrap();
            b.output(
                m,
                OutputTarget::array(a, HyperRect::new(vec![(0, 8)]).unwrap()),
            );
            b.build().unwrap()
        };
        let params = CostParams::default();
        let (optimized, record) = optimize_recorded(&graph(0.0), &params).unwrap();
        assert!(record.replay(&graph(0.0), &params, &optimized).is_some());
        assert!(record.replay(&graph(-0.0), &params, &optimized).is_none());
        let (optimized, record) = optimize_recorded(&graph(f32::NAN), &params).unwrap();
        assert!(record
            .replay(&graph(f32::NAN), &params, &optimized)
            .is_some());
    }
}
