//! End-to-end tests for the e-graph optimizer: rewrites must preserve the
//! reference interpreter's semantics, and the canonical paper examples must
//! discover their intended reuse.

use infs_egraph::{optimize, optimize_with_limits, CostParams, SaturationLimits};
use infs_geom::HyperRect;
use infs_sdfg::{ArrayDecl, DataType, Memory};
use infs_tdfg::{ComputeOp, Node, OutputTarget, Tdfg, TdfgBuilder};
use proptest::prelude::*;
use std::collections::HashMap;

fn rect(iv: &[(i64, i64)]) -> HyperRect {
    HyperRect::new(iv.to_vec()).unwrap()
}

fn count_op(g: &Tdfg, op: ComputeOp) -> usize {
    g.nodes()
        .iter()
        .filter(|n| matches!(n, Node::Compute { op: o, .. } if *o == op))
        .count()
}

/// Runs both graphs on the same inputs and compares all array/scalar outputs.
fn assert_equivalent(a: &Tdfg, b: &Tdfg, inputs: &[(infs_sdfg::ArrayId, Vec<f32>)]) {
    let mut ma = Memory::for_arrays(a.arrays());
    let mut mb = Memory::for_arrays(b.arrays());
    for (arr, vals) in inputs {
        ma.write_array(*arr, vals);
        mb.write_array(*arr, vals);
    }
    let oa = infs_tdfg::interp::execute(a, &mut ma, &[], &HashMap::new()).unwrap();
    let ob = infs_tdfg::interp::execute(b, &mut mb, &[], &HashMap::new()).unwrap();
    for (i, decl) in a.arrays().iter().enumerate() {
        let id = infs_sdfg::ArrayId(i as u32);
        let (va, vb) = (ma.array(id), mb.array(id));
        for (j, (&x, &y)) in va.iter().zip(vb).enumerate() {
            assert!(
                (x - y).abs() <= 1e-4 * x.abs().max(1.0),
                "array {} ({}) differs at {j}: {x} vs {y}",
                decl.name,
                id
            );
        }
    }
    assert_eq!(oa.scalars.len(), ob.scalars.len());
    for (name, v) in &oa.scalars {
        let w = ob.scalar(name).expect("same scalar outputs");
        assert!(
            (v - w).abs() <= 1e-4 * v.abs().max(1.0),
            "{name}: {v} vs {w}"
        );
    }
}

/// Fig 20: two shifted constant multiplies collapse into one multiply over the
/// expanded tensor.
#[test]
fn fig20_reuses_constant_multiply() {
    let n = 16i64;
    let mut b = TdfgBuilder::new(1, DataType::F32);
    let a = b.declare_array(ArrayDecl::new("A", vec![n as u64], DataType::F32));
    let out = b.declare_array(ArrayDecl::new("B", vec![n as u64], DataType::F32));
    let v = b.constant(3.0);
    let a0 = b.input(a, rect(&[(0, n - 2)])).unwrap();
    let a1 = b.input(a, rect(&[(2, n)])).unwrap();
    let m0 = b.compute(ComputeOp::Mul, &[a0, v]).unwrap();
    let m1 = b.compute(ComputeOp::Mul, &[a1, v]).unwrap();
    let s0 = b.mv(m0, 0, 1).unwrap();
    let s1 = b.mv(m1, 0, -1).unwrap();
    let sum = b.compute(ComputeOp::Add, &[s0, s1]).unwrap();
    b.output(sum, OutputTarget::array(out, rect(&[(1, n - 1)])));
    let g = b.build().unwrap();

    let opt = optimize(&g, &CostParams::default()).unwrap();
    assert_eq!(count_op(&g, ComputeOp::Mul), 2);
    assert_eq!(
        count_op(&opt, ComputeOp::Mul),
        1,
        "multiply should be reused:\n{opt}"
    );

    let data: Vec<f32> = (0..n).map(|i| (i * 7 % 13) as f32).collect();
    assert_equivalent(&g, &opt, &[(a, data)]);
}

/// A 3-tap stencil where every tap is scaled by the same constant: the
/// optimizer should multiply once, not three times.
#[test]
fn three_tap_stencil_shares_scale() {
    let n = 32i64;
    let mut b = TdfgBuilder::new(1, DataType::F32);
    let a = b.declare_array(ArrayDecl::new("A", vec![n as u64], DataType::F32));
    let out = b.declare_array(ArrayDecl::new("B", vec![n as u64], DataType::F32));
    let k = b.constant(0.25);
    let center = rect(&[(1, n - 1)]);
    let t0 = b.input(a, rect(&[(0, n - 2)])).unwrap();
    let t1 = b.input(a, center.clone()).unwrap();
    let t2 = b.input(a, rect(&[(2, n)])).unwrap();
    let m0 = b.compute(ComputeOp::Mul, &[t0, k]).unwrap();
    let m1 = b.compute(ComputeOp::Mul, &[t1, k]).unwrap();
    let m2 = b.compute(ComputeOp::Mul, &[t2, k]).unwrap();
    let m0s = b.mv(m0, 0, 1).unwrap();
    let m2s = b.mv(m2, 0, -1).unwrap();
    let s1 = b.compute(ComputeOp::Add, &[m0s, m1]).unwrap();
    let s2 = b.compute(ComputeOp::Add, &[s1, m2s]).unwrap();
    b.output(s2, OutputTarget::array(out, center));
    let g = b.build().unwrap();

    let opt = optimize(&g, &CostParams::default()).unwrap();
    assert!(
        count_op(&opt, ComputeOp::Mul) <= 2,
        "expected scale reuse, got {} muls:\n{opt}",
        count_op(&opt, ComputeOp::Mul)
    );
    let data: Vec<f32> = (0..n).map(|i| (i * 3 % 17) as f32).collect();
    assert_equivalent(&g, &opt, &[(a, data)]);
}

/// Optimization must preserve semantics on a 2-D broadcast/compute graph.
#[test]
fn broadcast_graph_preserved() {
    let (m, n) = (8i64, 8i64);
    let mut b = TdfgBuilder::new(2, DataType::F32);
    let col = b.declare_array(ArrayDecl::new("col", vec![m as u64, 1], DataType::F32));
    let mat = b.declare_array(ArrayDecl::new(
        "mat",
        vec![m as u64, n as u64],
        DataType::F32,
    ));
    let out = b.declare_array(ArrayDecl::new(
        "out",
        vec![m as u64, n as u64],
        DataType::F32,
    ));
    let c = b.input(col, rect(&[(0, m), (0, 1)])).unwrap();
    let cb = b.bc(c, 1, 0, n as u64).unwrap();
    let mm = b.input(mat, rect(&[(0, m), (0, n)])).unwrap();
    let p = b.compute(ComputeOp::Mul, &[cb, mm]).unwrap();
    let q = b.compute(ComputeOp::Add, &[p, mm]).unwrap();
    b.output(q, OutputTarget::array(out, rect(&[(0, m), (0, n)])));
    let g = b.build().unwrap();

    let opt = optimize(&g, &CostParams::default()).unwrap();
    let cv: Vec<f32> = (0..m).map(|i| i as f32 + 1.0).collect();
    let mv: Vec<f32> = (0..m * n).map(|i| (i % 5) as f32).collect();
    assert_equivalent(&g, &opt, &[(col, cv), (mat, mv)]);
}

/// Saturation limits are respected: with zero iterations the graph passes
/// through extraction unchanged in semantics.
#[test]
fn zero_iteration_limits_still_roundtrip() {
    let n = 8i64;
    let mut b = TdfgBuilder::new(1, DataType::F32);
    let a = b.declare_array(ArrayDecl::new("A", vec![n as u64], DataType::F32));
    let x = b.input(a, rect(&[(0, n)])).unwrap();
    let y = b.mv(x, 0, 1).unwrap();
    let s = b.compute(ComputeOp::Add, &[x, y]).unwrap();
    b.output(s, OutputTarget::array(a, rect(&[(1, n)])));
    let g = b.build().unwrap();
    let opt = optimize_with_limits(
        &g,
        &CostParams::default(),
        SaturationLimits {
            max_iters: 0,
            max_nodes: 10,
        },
    )
    .unwrap();
    let data: Vec<f32> = (0..n).map(|i| i as f32).collect();
    assert_equivalent(&g, &opt, &[(a, data)]);
}

/// Scalar reduce outputs survive optimization.
#[test]
fn reduce_scalar_preserved() {
    let n = 16i64;
    let mut b = TdfgBuilder::new(1, DataType::F32);
    let a = b.declare_array(ArrayDecl::new("A", vec![n as u64], DataType::F32));
    let x = b.input(a, rect(&[(0, n)])).unwrap();
    let two = b.constant(2.0);
    let d = b.compute(ComputeOp::Mul, &[x, two]).unwrap();
    let r = b.reduce(d, 0, infs_sdfg::ReduceOp::Sum).unwrap();
    b.output(r, OutputTarget::scalar("sum"));
    let g = b.build().unwrap();
    let opt = optimize(&g, &CostParams::default()).unwrap();
    let data: Vec<f32> = (0..n).map(|i| i as f32).collect();
    assert_equivalent(&g, &opt, &[(a, data)]);
}

/// `B[i] = A[i] + A[i+1] + … + A[i+taps-1]` as the front end builds it: one
/// input rectangle per tap, moved onto the output's, added in a left-deep
/// chain.
fn tap_chain(taps: i64, n: i64) -> (Tdfg, infs_sdfg::ArrayId) {
    let m = n - taps + 1;
    let mut b = TdfgBuilder::new(1, DataType::F32);
    let a = b.declare_array(ArrayDecl::new("A", vec![n as u64], DataType::F32));
    let out = b.declare_array(ArrayDecl::new("B", vec![n as u64], DataType::F32));
    let mut sum = b.input(a, rect(&[(0, m)])).unwrap();
    for d in 1..taps {
        let x = b.input(a, rect(&[(d, d + m)])).unwrap();
        let x = b.mv(x, 0, -d).unwrap();
        sum = b.compute(ComputeOp::Add, &[sum, x]).unwrap();
    }
    b.output(sum, OutputTarget::array(out, rect(&[(0, m)])));
    (b.build().unwrap(), a)
}

/// Deep add chains used to grow the e-graph unchecked inside one
/// tensor-expansion pass (54 576 e-nodes at 32 taps). The cap holds inside
/// a pass, and a capped graph still extracts a correct one: integer-valued
/// inputs keep every reassociated sum exact, so it matches the reference
/// interpreter bit for bit.
#[test]
fn deep_chains_stay_under_the_cap() {
    let max_nodes = SaturationLimits::default().max_nodes;
    let n = 512i64;
    for taps in [8, 16, 32, 64, 128, 256] {
        let (g, a) = tap_chain(taps, n);
        let opt = {
            let _session = infs_trace::exclusive();
            let opt = optimize(&g, &CostParams::default()).unwrap();
            let snap = infs_trace::snapshot();
            let enodes: Vec<&infs_trace::ArgValue> = snap
                .events
                .iter()
                // Other tests trace on their own threads meanwhile.
                .filter(|e| e.name == "egraph.optimize" && e.tid == infs_trace::current_tid())
                .flat_map(|e| e.args.iter().filter(|(k, _)| *k == "enodes"))
                .map(|(_, v)| v)
                .collect();
            match enodes[..] {
                [infs_trace::ArgValue::UInt(e)] => {
                    assert!(*e as usize <= max_nodes, "{taps} taps: {e} e-nodes")
                }
                _ => panic!("{taps} taps: one enodes arg expected, got {enodes:?}"),
            }
            opt
        };
        let data: Vec<f32> = (0..n).map(|i| (i % 7 - 3) as f32).collect();
        let run = |graph: &Tdfg| {
            let mut mem = Memory::for_arrays(graph.arrays());
            mem.write_array(a, &data);
            infs_tdfg::interp::reference::execute(graph, &mut mem, &[], &HashMap::new()).unwrap();
            mem.array(infs_sdfg::ArrayId(1)).to_vec()
        };
        let (want, got) = (run(&g), run(&opt));
        assert!(
            want.iter()
                .zip(&got)
                .all(|(w, o)| w.to_bits() == o.to_bits()),
            "{taps} taps: the optimized chain computes something else"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random shifted-tap linear stencils: optimization preserves semantics.
    #[test]
    fn prop_random_stencils_preserved(
        taps in proptest::collection::vec((0i64..3, 1u32..5), 1..4),
        data in proptest::collection::vec(-8i32..8, 24),
    ) {
        let n = 24i64;
        let mut b = TdfgBuilder::new(1, DataType::F32);
        let a = b.declare_array(ArrayDecl::new("A", vec![n as u64], DataType::F32));
        let out_arr = b.declare_array(ArrayDecl::new("B", vec![n as u64], DataType::F32));
        // Output domain [2, n-2); tap offsets in [-1, 1].
        let lo = 2i64;
        let hi = n - 2;
        let mut acc: Option<infs_tdfg::NodeId> = None;
        for &(off_raw, scale) in &taps {
            let off = off_raw - 1; // -1..=1
            let t = b.input(a, rect(&[(lo + off, hi + off)])).unwrap();
            let aligned = if off != 0 { b.mv(t, 0, -off).unwrap() } else { t };
            let k = b.constant(scale as f32);
            let m = b.compute(ComputeOp::Mul, &[aligned, k]).unwrap();
            acc = Some(match acc {
                Some(prev) => b.compute(ComputeOp::Add, &[prev, m]).unwrap(),
                None => m,
            });
        }
        b.output(acc.unwrap(), OutputTarget::array(out_arr, rect(&[(lo, hi)])));
        let g = b.build().unwrap();
        let opt = optimize(&g, &CostParams::default()).unwrap();
        let vals: Vec<f32> = data.iter().map(|&x| x as f32).collect();
        assert_equivalent(&g, &opt, &[(a, vals)]);
    }
}
