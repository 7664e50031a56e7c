//! Rebuild cost is observable on the trace: every `egraph.rebuild` span
//! says how many dirty-stack entries it popped (`pushes`), how many class
//! repairs it ran (`classes`) and how many parent entries those repairs
//! canonicalized (`parents`). A class that many unions dirtied is repaired
//! once, not once per union.

use infs_egraph::{optimize, CostParams, EClassId, EGraph, ENode};
use infs_geom::HyperRect;
use infs_sdfg::{ArrayDecl, DataType};
use infs_tdfg::{ComputeOp, NodeId, OutputTarget, Tdfg, TdfgBuilder};
use infs_trace::{ArgValue, Event, TraceSnapshot};
use std::collections::HashSet;

fn rect(iv: &[(i64, i64)]) -> HyperRect {
    HyperRect::new(iv.to_vec()).unwrap()
}

/// `B = A[i][j] + A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]` over the
/// interior of a `d`×`d` table; also returns the five taps, each aligned on
/// the interior (the center input and the four moves).
fn stencil5(d: i64) -> (Tdfg, Vec<NodeId>) {
    let mut b = TdfgBuilder::new(2, DataType::F32);
    let shape = vec![d as u64, d as u64];
    let a = b.declare_array(ArrayDecl::new("A", shape.clone(), DataType::F32));
    let out = b.declare_array(ArrayDecl::new("B", shape, DataType::F32));
    let interior = rect(&[(1, d - 1), (1, d - 1)]);
    let center = b.input(a, interior.clone()).unwrap();
    let mut taps = vec![center];
    let mut sum = center;
    for (dim, dist) in [(0, 1), (0, -1), (1, 1), (1, -1)] {
        let src = b
            .input(a, interior.translated(dim, -dist).unwrap())
            .unwrap();
        let tap = b.mv(src, dim, dist).unwrap();
        taps.push(tap);
        sum = b.compute(ComputeOp::Add, &[sum, tap]).unwrap();
    }
    b.output(sum, OutputTarget::array(out, interior));
    (b.build().unwrap(), taps)
}

fn uint_arg(e: &Event, key: &str) -> u64 {
    match e.args.iter().find(|(k, _)| *k == key) {
        Some((_, ArgValue::UInt(v))) => *v,
        other => panic!("{} has no unsigned `{key}` arg: {other:?}", e.name),
    }
}

fn spans<'a>(snap: &'a TraceSnapshot, name: &str) -> Vec<&'a Event> {
    snap.events.iter().filter(|e| e.name == name).collect()
}

#[test]
fn a_class_dirtied_by_many_unions_is_repaired_once() {
    const COPIES: i64 = 4;
    let d = 8;
    let (g, tap_nodes) = stencil5(d);
    let mut eg = EGraph::from_tdfg(&g);
    let taps: Vec<EClassId> = tap_nodes.iter().map(|&n| eg.class_of_node(n)).collect();
    // Union each tap with COPIES distinct shrinks that keep its domain: every
    // union pushes the tap (the older, smaller id) onto the dirty stack, and
    // none makes two parents congruent, so the rebuild is a single pass.
    for &t in &taps {
        for k in 0..COPIES {
            let s = eg
                .add(ENode::Shrink {
                    input: t,
                    dim: 0,
                    p: 1 - k,
                    q: d - 1,
                })
                .expect("a shrink to the tap's own domain is well-formed");
            assert!(eg.union(t, s), "same domain, distinct classes");
        }
    }
    let dirty: HashSet<EClassId> = taps.iter().map(|&t| eg.find(t)).collect();
    assert_eq!(dirty.len(), taps.len());
    // Each child slot of each stored node left one entry on its child's
    // parent list, so this is the dirty classes' total parent-list length.
    let parent_entries = eg
        .class_ids()
        .into_iter()
        .flat_map(|c| eg.class_nodes(c))
        .flat_map(|n| n.children())
        .filter(|&&c| dirty.contains(&eg.find(c)))
        .count() as u64;

    let session = infs_trace::exclusive();
    eg.rebuild();
    let snap = infs_trace::snapshot();
    drop(session);

    let rebuilds = spans(&snap, "egraph.rebuild");
    assert_eq!(rebuilds.len(), 1, "one span per rebuild");
    let r = rebuilds[0];
    assert_eq!(uint_arg(r, "pushes"), taps.len() as u64 * COPIES as u64);
    assert_eq!(uint_arg(r, "classes"), dirty.len() as u64);
    assert!(
        uint_arg(r, "parents") <= parent_entries,
        "{} parent entries canonicalized, the dirty lists hold {parent_entries}",
        uint_arg(r, "parents")
    );
}

#[test]
fn every_saturation_pass_reports_its_rebuild() {
    let (g, _) = stencil5(8);
    let session = infs_trace::exclusive();
    optimize(&g, &CostParams::default()).expect("optimizes");
    let snap = infs_trace::snapshot();
    drop(session);

    let passes = spans(&snap, "egraph.saturate");
    let rebuilds = spans(&snap, "egraph.rebuild");
    assert!(!passes.is_empty());
    assert_eq!(rebuilds.len(), passes.len(), "one rebuild per pass");
    for (pass, r) in passes.iter().zip(&rebuilds) {
        assert!(
            pass.tid == r.tid && pass.ts <= r.ts && r.ts + r.dur <= pass.ts + pass.dur,
            "egraph.rebuild nests under egraph.saturate"
        );
        assert!(uint_arg(r, "classes") <= uint_arg(r, "pushes"));
    }
}
