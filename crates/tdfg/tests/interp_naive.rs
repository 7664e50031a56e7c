//! Property tests pinning the executor from two sides.
//!
//! The executor is the functional half of every served run (the simulator and
//! the differential fuzzer both trust it), so it gets its own independent
//! checks:
//!
//! * for hand-parameterized graph families over small 1-D tensors,
//!   `interp::execute` must agree *bitwise* with evaluating the scalar
//!   recurrence one lattice point at a time. Data is integer-valued and the op
//!   pool excludes division and square roots, so every intermediate is exactly
//!   representable and bit-equality is the right comparison even across
//!   reduction reassociation;
//! * for seeded random 2-D/3-D graphs over data that is *not* exactly
//!   representable, the row-strided `interp::execute` must agree bitwise with
//!   the per-point `interp::reference::execute` on memory, scalars and stream
//!   tensors — one reassociated sum, fused multiply-add or misplaced row fails
//!   it.

use infs_geom::HyperRect;
use infs_sdfg::{ArrayDecl, ArrayId, DataType, Memory, ReduceOp, StreamId};
use infs_tdfg::{interp, ComputeOp, NodeId, OutputTarget, Tdfg, TdfgBuilder, TensorData};
use proptest::prelude::*;
use std::collections::HashMap;

const N: i64 = 16;

fn arrays() -> Vec<ArrayDecl> {
    ["A", "B", "C"]
        .iter()
        .map(|n| ArrayDecl {
            name: (*n).to_string(),
            shape: vec![N as u64],
            dtype: DataType::F32,
        })
        .collect()
}

fn rect(p: i64, q: i64) -> HyperRect {
    HyperRect::new(vec![(p, q)]).unwrap()
}

const OPS: [ComputeOp; 6] = [
    ComputeOp::Add,
    ComputeOp::Sub,
    ComputeOp::Mul,
    ComputeOp::Min,
    ComputeOp::Max,
    ComputeOp::CmpLt,
];
const ROPS: [ReduceOp; 3] = [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max];

fn arb_vals() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec((-3i64..4).prop_map(|v| v as f32), N as usize)
}

fn arb_op() -> impl Strategy<Value = ComputeOp> {
    (0usize..OPS.len()).prop_map(|i| OPS[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `C[x] = op(A[x], B[x - d])` over the aligned domain: an `mv` node's
    /// shift must read exactly the translated points, and untouched cells of
    /// the output array must stay zero.
    #[test]
    fn prop_mv_compute_matches_naive(
        av in arb_vals(),
        bv in arb_vals(),
        d in -2i64..3,
        op in arb_op(),
    ) {
        let decls = arrays();
        let mut b = TdfgBuilder::new(1, DataType::F32);
        b.set_arrays(decls.clone());
        let (a, bb, c) = (infs_sdfg::ArrayId(0), infs_sdfg::ArrayId(1), infs_sdfg::ArrayId(2));
        let ina = b.input(a, rect(0, N)).unwrap();
        let inb = b.input(bb, rect(0, N)).unwrap();
        let mv = b.mv(inb, 0, d).unwrap();
        let e = b.compute(op, &[ina, mv]).unwrap();
        // The shifted operand only covers [max(0, d), min(N, N + d)).
        let (lo, hi) = (0.max(d), N.min(N + d));
        b.output(e, OutputTarget::array(c, rect(lo, hi)));
        let g = b.build().unwrap();

        let mut mem = Memory::for_arrays(&decls);
        mem.write_array(a, &av);
        mem.write_array(bb, &bv);
        interp::execute(&g, &mut mem, &[], &HashMap::new()).unwrap();

        let got = mem.array(c);
        for x in 0..N {
            let want = if (lo..hi).contains(&x) {
                op.eval(&[av[x as usize], bv[(x - d) as usize]])
            } else {
                0.0
            };
            prop_assert_eq!(
                got[x as usize].to_bits(),
                want.to_bits(),
                "C[{}] = {} (want {}) for d={}, op={:?}",
                x, got[x as usize], want, d, op
            );
        }
    }

    /// `C[x] = op(A[x], B[k])`: a `shrink` to one point followed by a `bc`
    /// across the lattice must replicate exactly that point everywhere.
    #[test]
    fn prop_shrink_bc_matches_naive(
        av in arb_vals(),
        bv in arb_vals(),
        k in 0i64..N,
        op in arb_op(),
    ) {
        let decls = arrays();
        let mut b = TdfgBuilder::new(1, DataType::F32);
        b.set_arrays(decls.clone());
        let (a, bb, c) = (infs_sdfg::ArrayId(0), infs_sdfg::ArrayId(1), infs_sdfg::ArrayId(2));
        let ina = b.input(a, rect(0, N)).unwrap();
        let inb = b.input(bb, rect(0, N)).unwrap();
        let thin = b.shrink(inb, 0, k, k + 1).unwrap();
        let wide = b.bc(thin, 0, 0, N as u64).unwrap();
        let e = b.compute(op, &[ina, wide]).unwrap();
        b.output(e, OutputTarget::array(c, rect(0, N)));
        let g = b.build().unwrap();

        let mut mem = Memory::for_arrays(&decls);
        mem.write_array(a, &av);
        mem.write_array(bb, &bv);
        interp::execute(&g, &mut mem, &[], &HashMap::new()).unwrap();

        let got = mem.array(c);
        for x in 0..N as usize {
            let want = op.eval(&[av[x], bv[k as usize]]);
            prop_assert_eq!(got[x].to_bits(), want.to_bits());
        }
    }

    /// `acc = reduce(op(A[x], B[x]))`: the interpreter's reduction must match
    /// a naive left-to-right fold bit for bit (exact on integer-valued data).
    #[test]
    fn prop_reduce_matches_naive(
        av in arb_vals(),
        bv in arb_vals(),
        op in arb_op(),
        rop in (0usize..ROPS.len()).prop_map(|i| ROPS[i]),
    ) {
        let decls = arrays();
        let mut b = TdfgBuilder::new(1, DataType::F32);
        b.set_arrays(decls.clone());
        let (a, bb) = (infs_sdfg::ArrayId(0), infs_sdfg::ArrayId(1));
        let ina = b.input(a, rect(0, N)).unwrap();
        let inb = b.input(bb, rect(0, N)).unwrap();
        let e = b.compute(op, &[ina, inb]).unwrap();
        let r = b.reduce(e, 0, rop).unwrap();
        b.output(r, OutputTarget::scalar("acc"));
        let g = b.build().unwrap();

        let mut mem = Memory::for_arrays(&decls);
        mem.write_array(a, &av);
        mem.write_array(bb, &bv);
        let out = interp::execute(&g, &mut mem, &[], &HashMap::new()).unwrap();

        let mut want = rop.identity();
        for x in 0..N as usize {
            want = rop.apply(want, op.eval(&[av[x], bv[x]]));
        }
        prop_assert_eq!(out.scalar("acc").unwrap().to_bits(), want.to_bits());
    }
}

/// SplitMix64: the case generator's only source of choice.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.range(0, from.len() as i64) as usize]
    }

    /// A finite value with no short binary expansion, so that a reassociated
    /// or fused operation rounds differently — or, one time in five, a signed
    /// zero, so that `min`/`max` meet the `+0`/`−0` tie `f32::min`/`f32::max`
    /// leave to the compiler.
    fn value(&mut self) -> f32 {
        match self.range(0, 10) {
            0 => 0.0,
            1 => -0.0,
            _ => self.range(-20, 21) as f32 / 7.0,
        }
    }

    /// A non-empty sub-interval of `[p, q)`.
    fn sub(&mut self, (p, q): (i64, i64)) -> (i64, i64) {
        let a = self.range(p, q);
        (a, self.range(a + 1, q + 1))
    }
}

/// What a generated case exercised, summed over the campaign so the test can
/// insist that no node kind was silently never drawn.
#[derive(Default)]
struct Coverage {
    mv: [u32; 3],
    bc: [u32; 3],
    shrink: [u32; 3],
    reduce: [u32; 3],
    ops: [u32; 15],
    uniform_operand: u32,
    all_constant: u32,
    rank_gap: u32,
    stream_in: u32,
    scalar_out: u32,
    stream_out: u32,
    uniform_out: u32,
    overlapping_outs: u32,
}

/// One random graph with its arrays, initial memory and runtime inputs.
struct Case {
    g: Tdfg,
    mem: Memory,
    params: Vec<f32>,
    streams: HashMap<NodeId, TensorData>,
}

/// Grows a random valid graph: every candidate node is kept only if the graph
/// still builds, and the built graph's domains steer the next choice.
fn random_case(seed: u64, cov: &mut Coverage) -> Option<Case> {
    let mut r = Rng(seed);
    let ndim = r.range(2, 4) as usize;
    let shape: Vec<u64> = [r.range(5, 8), r.range(4, 7), r.range(3, 5)][..ndim]
        .iter()
        .map(|&e| e as u64)
        .collect();
    let decl = |n: &str, shape: &[u64]| ArrayDecl::new(n, shape.to_vec(), DataType::F32);
    // A, B, C span the lattice; V and W have a lower rank than it.
    let decls = vec![
        decl("A", &shape),
        decl("B", &shape),
        decl("C", &shape),
        decl("V", &shape[..1]),
        decl("W", &shape[..ndim - 1]),
    ];
    let mut b = TdfgBuilder::new(ndim, DataType::F32);
    b.set_arrays(decls.clone());

    // A region of `array` seen through a random lattice offset; lattice
    // dimensions beyond the array's rank sit at an arbitrary coordinate.
    let region = |r: &mut Rng, array: usize| -> (HyperRect, Vec<i64>) {
        let rank = decls[array].shape.len();
        let (mut iv, mut off) = (Vec::new(), Vec::new());
        for d in 0..ndim {
            let (ap, aq) = if d < rank {
                r.sub((0, decls[array].shape[d] as i64))
            } else {
                (0, 1)
            };
            let o = r.range(-2, 3);
            iv.push((ap - o, aq - o));
            off.push(o);
        }
        (HyperRect::new(iv).unwrap(), off)
    };

    let mut tensors: Vec<NodeId> = Vec::new();
    let mut uniforms: Vec<NodeId> = Vec::new();
    for array in [0, 1, 0, 3, 4] {
        let (rect, off) = region(&mut r, array);
        tensors.push(b.input_at(ArrayId(array as u32), rect, off).unwrap());
    }
    cov.rank_gap += 2;
    uniforms.push(b.constant(r.value()));
    uniforms.push(b.param(0));
    let mut streams = HashMap::new();
    if r.range(0, 3) == 0 {
        let (rect, _) = region(&mut r, 1);
        let id = b.stream_in(StreamId(3), rect.clone()).unwrap();
        let data = TensorData::from_fn(rect, |_| r.value());
        streams.insert(id, data);
        tensors.push(id);
        cov.stream_in += 1;
    }

    let mut g = b.clone().build().ok()?;
    for _ in 0..r.range(6, 14) {
        let mut t = b.clone();
        let x = r.pick(&tensors);
        let dom = g.domain(x).unwrap().clone();
        let dim = r.range(0, ndim as i64) as usize;
        let (added, uniform) = match r.range(0, 8) {
            0 => {
                cov.mv[dim] += 1;
                (t.mv(x, dim, r.range(-2, 3)).unwrap(), false)
            }
            1 => {
                cov.shrink[dim] += 1;
                let (p, q) = r.sub(dom.interval(dim));
                (t.shrink(x, dim, p, q).unwrap(), false)
            }
            2 => {
                cov.bc[dim] += 1;
                let at = r.range(dom.start(dim), dom.end(dim));
                let thin = t.shrink(x, dim, at, at + 1).unwrap();
                let id = t.bc(thin, dim, r.range(-1, 3), r.range(1, 6) as u64);
                (id.unwrap(), false)
            }
            3 => {
                cov.reduce[dim] += 1;
                let op = r.pick(&[ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max]);
                (t.reduce(x, dim, op).unwrap(), false)
            }
            _ => {
                let op = r.pick(&ComputeOp::ALL);
                let all_constant = r.range(0, 12) == 0;
                let inputs: Vec<NodeId> = (0..op.arity())
                    .map(|k| match (all_constant, k == 0 || r.range(0, 4) > 0) {
                        (true, _) | (false, false) => r.pick(&uniforms),
                        (false, true) => r.pick(&tensors),
                    })
                    .collect();
                let n_uniform = inputs.iter().filter(|x| uniforms.contains(x)).count();
                cov.ops[ComputeOp::ALL.iter().position(|&o| o == op).unwrap()] += 1;
                cov.uniform_operand += (n_uniform > 0 && !all_constant) as u32;
                cov.all_constant += all_constant as u32;
                (t.compute(op, &inputs).unwrap(), all_constant)
            }
        };
        // An empty intersection or a clipped-away move: try another node.
        if let Ok(built) = t.clone().build() {
            (b, g) = (t, built);
            if uniform { &mut uniforms } else { &mut tensors }.push(added);
        }
    }

    // Array outputs: sub-rectangles of a node's domain stored through a
    // random offset. Two of them land in C (the later one must win where
    // they overlap) and one in the lower-rank W.
    let mut c_boxes: Vec<HyperRect> = Vec::new();
    for array in [2usize, 2, 4] {
        let x = r.pick(&tensors);
        let dom = g.domain(x).unwrap().clone();
        let rank = decls[array].shape.len();
        let (mut iv, mut off) = (Vec::new(), Vec::new());
        for d in 0..ndim {
            let cap = if d < rank {
                decls[array].shape[d] as i64
            } else {
                1
            };
            let (p, q) = r.sub(dom.interval(d));
            let q = q.min(p + cap);
            let o = r.range(-p, cap - q + 1);
            iv.push((p, q));
            off.push(o);
        }
        let rect = HyperRect::new(iv).unwrap();
        if array == 2 {
            let in_array: Vec<(i64, i64)> = (0..ndim)
                .map(|d| (rect.start(d) + off[d], rect.end(d) + off[d]))
                .collect();
            let in_array = HyperRect::new(in_array).unwrap();
            if c_boxes
                .iter()
                .any(|o| o.intersect(&in_array).unwrap().is_some())
            {
                cov.overlapping_outs += 1;
            }
            c_boxes.push(in_array);
        }
        b.output(
            x,
            OutputTarget::Array {
                array: ArrayId(array as u32),
                rect,
                array_offset: off,
            },
        );
    }
    if r.range(0, 2) == 0 {
        let (rect, off) = region(&mut r, 2);
        b.output(
            r.pick(&uniforms),
            OutputTarget::Array {
                array: ArrayId(2),
                rect,
                array_offset: off,
            },
        );
        cov.uniform_out += 1;
    }
    if r.range(0, 2) == 0 {
        // Shrink a node to one cell for a scalar output.
        let mut x = r.pick(&tensors);
        let dom = g.domain(x).unwrap().clone();
        for d in 0..ndim {
            let at = r.range(dom.start(d), dom.end(d));
            x = b.shrink(x, d, at, at + 1).unwrap();
        }
        b.output(x, OutputTarget::scalar("s"));
        cov.scalar_out += 1;
    }
    if r.range(0, 2) == 0 {
        b.output(r.pick(&tensors), OutputTarget::stream(StreamId(9)));
        cov.stream_out += 1;
    }
    // Output arrays widen the bounding box, which can invalidate nothing
    // that was valid, but stay defensive: an unbuildable case is skipped.
    let g = b.build().ok()?;

    let mut mem = Memory::for_arrays(&decls);
    for a in 0..decls.len() {
        let vals: Vec<f32> = mem
            .array(ArrayId(a as u32))
            .iter()
            .map(|_| r.value())
            .collect();
        mem.write_array(ArrayId(a as u32), &vals);
    }
    Some(Case {
        g,
        mem,
        params: vec![r.value()],
        streams,
    })
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The row-strided executor against the per-point reference over seeded
/// 2-D/3-D graphs: non-zero rectangle starts, array offsets, lattice rank
/// above array rank, `mv`/`bc`/`shrink`/`reduce` on every dimension, every
/// operator, uniform and all-constant operands, scalar, stream and
/// overlapping array outputs. Memory, scalars and stream tensors must match
/// bit for bit, and so must the error when a runtime input is missing.
#[test]
fn executor_matches_reference_bit_for_bit() {
    let mut cov = Coverage::default();
    let mut ran = 0;
    for seed in 0..600u64 {
        let Some(case) = random_case(seed, &mut cov) else {
            continue;
        };
        let (mut fast_mem, mut ref_mem) = (case.mem.clone(), case.mem.clone());
        let want =
            interp::reference::execute(&case.g, &mut ref_mem, &case.params, &case.streams).unwrap();
        // NaN payloads are the one thing two correct compilations of the
        // same operation sequence may disagree on; such cases prove nothing.
        let nan = |v: &[f32]| v.iter().any(|x| x.is_nan());
        if (0..5).any(|a| nan(ref_mem.array(ArrayId(a))))
            || want.scalars.iter().any(|s| s.1.is_nan())
            || want.stream_outputs.iter().any(|s| nan(s.1.values()))
        {
            continue;
        }
        let got = interp::execute(&case.g, &mut fast_mem, &case.params, &case.streams).unwrap();
        for a in 0..5 {
            let a = ArrayId(a);
            assert_eq!(
                bits(fast_mem.array(a)),
                bits(ref_mem.array(a)),
                "seed {seed}: {a} differs\n{}",
                case.g
            );
        }
        assert_eq!(got.scalars.len(), want.scalars.len(), "seed {seed}");
        for (g, w) in got.scalars.iter().zip(&want.scalars) {
            assert_eq!((&g.0, g.1.to_bits()), (&w.0, w.1.to_bits()), "seed {seed}");
        }
        assert_eq!(got.stream_outputs.len(), want.stream_outputs.len());
        for (g, w) in got.stream_outputs.iter().zip(&want.stream_outputs) {
            assert_eq!((g.0, g.1.rect()), (w.0, w.1.rect()), "seed {seed}");
            assert_eq!(bits(g.1.values()), bits(w.1.values()), "seed {seed}");
        }

        // A missing parameter or stream tensor is the same typed error, with
        // memory untouched on both sides.
        let (mut fast_mem, mut ref_mem) = (case.mem.clone(), case.mem.clone());
        let none = HashMap::new();
        assert_eq!(
            interp::execute(&case.g, &mut fast_mem, &[], &none).unwrap_err(),
            interp::reference::execute(&case.g, &mut ref_mem, &[], &none).unwrap_err(),
            "seed {seed}"
        );
        assert_eq!(fast_mem, case.mem);
        ran += 1;
    }
    assert!(ran >= 400, "only {ran} cases ran");
    for (what, n) in [
        ("mv", cov.mv),
        ("bc", cov.bc),
        ("shrink", cov.shrink),
        ("reduce", cov.reduce),
    ] {
        assert!(n.iter().all(|&c| c >= 20), "{what} per dimension: {n:?}");
    }
    assert!(cov.ops.iter().all(|&c| c >= 20), "operators: {:?}", cov.ops);
    for (what, n) in [
        ("uniform operand", cov.uniform_operand),
        ("all-constant compute", cov.all_constant),
        ("lattice rank above array rank", cov.rank_gap),
        ("stream input", cov.stream_in),
        ("scalar output", cov.scalar_out),
        ("stream output", cov.stream_out),
        ("uniform array output", cov.uniform_out),
        ("overlapping array outputs", cov.overlapping_outs),
    ] {
        assert!(n >= 20, "{what}: drawn {n} times");
    }
}

/// `min`/`max` over `+0`/`−0` ties give the same bits from the executor and
/// the reference in every build profile. `f32::min`/`f32::max` leave that tie
/// to the compiler, and an optimized build resolved it differently in the
/// two reduce loops until `infs_sdfg::fmin`/`fmax` pinned it. The column is
/// the one the `0xC0FFEE` campaign found (seed `0x1f18a193568bf02b`, 60 cells
/// from coordinate 2, the first zero negative): the reference's fold kept the
/// first zero, the executor's did not.
#[test]
fn signed_zero_ties_resolve_the_same_in_executor_and_reference() {
    const COLUMN: [f32; 60] = [
        1.0, 3.0, 3.0, 3.0, 1.0, 1.0, 1.0, 1.0, 2.0, -0.0, 1.0, 1.0, 1.0, 3.0, 1.0, 1.0, 0.0, 2.0,
        2.0, 3.0, 2.0, 1.0, 2.0, -0.0, 1.0, 0.0, 0.0, 1.0, 2.0, 1.0, -0.0, 1.0, 1.0, 0.0, 2.0,
        -0.0, 1.0, 1.0, 2.0, 1.0, 2.0, 1.0, 0.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 1.0, 0.0, 0.0, 1.0,
        0.0, 1.0, 2.0, 0.0, 2.0, 1.0, 1.0,
    ];
    let decls = vec![
        ArrayDecl::new("A", vec![64, 8], DataType::F32),
        ArrayDecl::new("B", vec![64, 8], DataType::F32),
    ];
    let window = HyperRect::new(vec![(2, 62), (2, 6)]).unwrap();
    for (cop, rop) in [
        (ComputeOp::Min, ReduceOp::Min),
        (ComputeOp::Max, ReduceOp::Max),
    ] {
        // Max sees the column negated, so that its ties are the maxima.
        let sign = if rop == ReduceOp::Min { 1.0 } else { -1.0 };
        let mut b = TdfgBuilder::new(2, DataType::F32);
        b.set_arrays(decls.clone());
        let x = b.input(ArrayId(0), window.clone()).unwrap();
        let y = b.input(ArrayId(1), window.clone()).unwrap();
        let along0 = b.reduce(x, 0, rop).unwrap();
        let along1 = b.reduce(x, 1, rop).unwrap();
        let pairwise = b.compute(cop, &[x, y]).unwrap();
        let relu = b.compute(ComputeOp::Relu, &[x]).unwrap();
        for (k, n) in [along0, along1, pairwise, relu].into_iter().enumerate() {
            b.output(n, OutputTarget::stream(StreamId(k as u32)));
        }
        let g = b.build().unwrap();

        let mut mem = Memory::for_arrays(&decls);
        for row in 0..8 {
            for i in 0..60 {
                // Each row starts one cell further into the column, and B is
                // A read backwards: ties in both orders along both dimensions.
                let at = |k: usize| sign * COLUMN[(k + row) % 60];
                mem.array_mut(ArrayId(0))[row * 64 + 2 + i] = at(i);
                mem.array_mut(ArrayId(1))[row * 64 + 2 + i] = at(59 - i);
            }
        }
        let mut ref_mem = mem.clone();
        let got = interp::execute(&g, &mut mem, &[], &HashMap::new()).unwrap();
        let want = interp::reference::execute(&g, &mut ref_mem, &[], &HashMap::new()).unwrap();
        for (g, w) in got.stream_outputs.iter().zip(&want.stream_outputs) {
            assert_eq!(bits(g.1.values()), bits(w.1.values()), "{rop}, {}", g.0);
        }
    }
}
