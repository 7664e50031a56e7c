//! Cost-based extraction of the best tDFG from a saturated e-graph.
//!
//! Phase 1 computes classic *tree costs* by bottom-up fixpoint — this
//! establishes feasibility (every reachable class has at least one acyclic
//! derivation) and a baseline choice per class. Phase 2 improves the selection
//! *DAG-aware*: the real cost of a selection counts each selected class once,
//! which is what makes "compute once over the expanded tensor, shrink twice"
//! (rules 5/9) cheaper than two independent computes. The improvement loop
//! greedily switches per-class choices while the global DAG cost decreases,
//! with a tie-break that prefers shrink nodes (they are free and enable
//! sharing).

use crate::{CostParams, EClassId, EGraph, ENode};
use infs_tdfg::{NodeId, Tdfg, TdfgBuilder, TdfgError};
use std::collections::HashMap;

const EPS: f64 = 1e-9;

/// Extracts the minimum-cost equivalent of `orig` from the saturated e-graph.
///
/// # Errors
///
/// Returns an error if the extracted graph fails tDFG validation, which would
/// indicate an unsound rewrite rule.
pub fn extract(eg: &EGraph, orig: &Tdfg, params: &CostParams) -> Result<Tdfg, TdfgError> {
    let dtype = orig.dtype();
    let ids = eg.class_ids();
    let index: HashMap<EClassId, usize> = ids.iter().enumerate().map(|(i, &c)| (c, i)).collect();
    let n = ids.len();
    let class_nodes: Vec<Vec<ENode>> = ids.iter().map(|&c| eg.nodes(c)).collect();
    let own: Vec<Vec<f64>> = ids
        .iter()
        .zip(&class_nodes)
        .map(|(&c, nodes)| {
            nodes
                .iter()
                .map(|nd| params.enode_cost(nd, eg.domain(c), dtype))
                .collect()
        })
        .collect();
    let children: Vec<Vec<Vec<usize>>> = class_nodes
        .iter()
        .map(|nodes| {
            nodes
                .iter()
                .map(|nd| nd.children().iter().map(|&c| index[&eg.find(c)]).collect())
                .collect()
        })
        .collect();

    // Phase 1: tree-cost fixpoint.
    let mut tree: Vec<Option<f64>> = vec![None; n];
    let mut chosen: Vec<Option<usize>> = vec![None; n];
    loop {
        let mut changed = false;
        for ci in 0..n {
            for (k, kids) in children[ci].iter().enumerate() {
                let mut total = own[ci][k];
                let mut feasible = true;
                for &kid in kids {
                    match tree[kid] {
                        Some(c) => total += c,
                        None => {
                            feasible = false;
                            break;
                        }
                    }
                }
                if feasible && tree[ci].is_none_or(|cur| total < cur - EPS) {
                    tree[ci] = Some(total);
                    chosen[ci] = Some(k);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let roots: Vec<usize> = orig
        .outputs()
        .iter()
        .map(|o| index[&eg.class_of_node(o.node)])
        .collect();
    for &r in &roots {
        assert!(
            chosen[r].is_some(),
            "every output class must have an acyclic derivation"
        );
    }

    // Phase 2: DAG-aware greedy improvement.
    let dag = |chosen: &[Option<usize>]| dag_cost(&roots, chosen, &children, &own);
    let mut current = dag(&chosen).expect("phase-1 selection is acyclic");
    for _pass in 0..4 {
        let mut improved = false;
        let reachable = reachable_set(&roots, &chosen, &children);
        for ci in reachable {
            let cur_k = chosen[ci].expect("reachable classes are chosen");
            for k in 0..class_nodes[ci].len() {
                if k == cur_k {
                    continue;
                }
                let old = chosen[ci];
                chosen[ci] = Some(k);
                let accept = match dag(&chosen) {
                    Some(c) if c < current - EPS => {
                        current = c;
                        true
                    }
                    // Tie-break: move onto a free shrink (enables sharing in a
                    // later switch) as long as the cost does not regress.
                    Some(c)
                        if c < current + EPS
                            && matches!(class_nodes[ci][k], ENode::Shrink { .. })
                            && !matches!(class_nodes[ci][cur_k], ENode::Shrink { .. }) =>
                    {
                        current = c;
                        true
                    }
                    _ => false,
                };
                if accept {
                    improved = true;
                    break;
                }
                chosen[ci] = old;
            }
        }
        if !improved {
            break;
        }
    }

    // Rebuild the tDFG from the selection.
    let mut b = TdfgBuilder::new(orig.ndim(), dtype);
    b.set_arrays(orig.shared_arrays().clone());
    let mut memo: Vec<Option<NodeId>> = vec![None; n];
    for &r in &roots {
        build_class(r, &mut b, &mut memo, &chosen, &class_nodes, &children)?;
    }
    for out in orig.outputs() {
        let r = index[&eg.class_of_node(out.node)];
        let node = memo[r].expect("root classes were built");
        b.output(node, out.target.clone());
    }
    b.build()
}

/// Total cost of a selection, counting each reachable class once; `None` if the
/// selection is cyclic or incomplete.
fn dag_cost(
    roots: &[usize],
    chosen: &[Option<usize>],
    children: &[Vec<Vec<usize>>],
    own: &[Vec<f64>],
) -> Option<f64> {
    // 0 = unvisited, 1 = on stack, 2 = done.
    let mut state = vec![0u8; chosen.len()];
    let mut total = 0.0;
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for &r in roots {
        if state[r] == 2 {
            continue;
        }
        stack.push((r, 0));
        state[r] = 1;
        while let Some(&mut (ci, ref mut next)) = stack.last_mut() {
            let k = chosen[ci]?;
            let kids = &children[ci][k];
            if *next == 0 {
                total += own[ci][k];
            }
            if *next < kids.len() {
                let kid = kids[*next];
                *next += 1;
                match state[kid] {
                    0 => {
                        state[kid] = 1;
                        stack.push((kid, 0));
                    }
                    1 => return None, // cycle
                    _ => {}
                }
            } else {
                state[ci] = 2;
                stack.pop();
            }
        }
    }
    Some(total)
}

fn reachable_set(
    roots: &[usize],
    chosen: &[Option<usize>],
    children: &[Vec<Vec<usize>>],
) -> Vec<usize> {
    let mut seen = vec![false; chosen.len()];
    let mut stack: Vec<usize> = roots.to_vec();
    let mut out = Vec::new();
    while let Some(ci) = stack.pop() {
        if seen[ci] {
            continue;
        }
        seen[ci] = true;
        out.push(ci);
        if let Some(k) = chosen[ci] {
            stack.extend(children[ci][k].iter().copied());
        }
    }
    out
}

/// Builds the selected node of a class into the builder (post-order, iterative).
fn build_class(
    root: usize,
    b: &mut TdfgBuilder,
    memo: &mut [Option<NodeId>],
    chosen: &[Option<usize>],
    class_nodes: &[Vec<ENode>],
    children: &[Vec<Vec<usize>>],
) -> Result<(), TdfgError> {
    let mut stack: Vec<(usize, bool)> = vec![(root, false)];
    while let Some((ci, expanded)) = stack.pop() {
        if memo[ci].is_some() {
            continue;
        }
        let k = chosen[ci].expect("reachable classes are chosen");
        if !expanded {
            stack.push((ci, true));
            for &kid in &children[ci][k] {
                if memo[kid].is_none() {
                    stack.push((kid, false));
                }
            }
            continue;
        }
        let kid_ids: Vec<NodeId> = children[ci][k]
            .iter()
            .map(|&kid| memo[kid].expect("children are built first"))
            .collect();
        let id = match &class_nodes[ci][k] {
            ENode::Input {
                array,
                rect,
                array_offset,
            } => b.input_at(*array, rect.clone(), array_offset.clone())?,
            ENode::ConstVal { bits } => b.constant(f32::from_bits(*bits)),
            ENode::Param { index } => b.param(*index),
            ENode::Compute { op, .. } => b.compute(*op, &kid_ids)?,
            ENode::Mv { dim, dist, .. } => b.mv(kid_ids[0], *dim, *dist)?,
            ENode::Bc {
                dim, dist, count, ..
            } => b.bc(kid_ids[0], *dim, *dist, *count)?,
            ENode::Shrink { dim, p, q, .. } => b.shrink(kid_ids[0], *dim, *p, *q)?,
            ENode::Reduce { dim, op, .. } => b.reduce(kid_ids[0], *dim, *op)?,
            ENode::StreamIn { stream, rect } => b.stream_in(*stream, rect.clone())?,
        };
        memo[ci] = Some(id);
    }
    Ok(())
}
