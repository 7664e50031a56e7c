//! Seeded input generation: a tiny RNG, small-integer tensor data (so every
//! f32 operation is exact and outputs compare bit for bit even after the
//! e-graph reassociates), and the benchmark-owned kernel generator.

use infs_frontend::{Idx, Kernel, KernelBuilder, ScalarExpr};
use infs_sdfg::{DataType, ReduceOp};

/// SplitMix64.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The generator behind every shuffle that decides the order operations
    /// run in. Order is structure, not input: what a cell costs depends on
    /// the cell before it (whose freed pages it reuses), and a closed loop's
    /// window time on which requests overlap across the two connections; two
    /// seeds that ordered the same operations differently differed by more
    /// than the bounds. So every seed runs one fixed pseudo-random order, and
    /// the seed decides what the operations carry.
    pub fn order() -> Self {
        Rng(0x1f5)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// `n` integers in `-3..=3`, as f32.
    pub fn small_ints(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.below(7) as f32 - 3.0).collect()
    }
}

/// The structural families the generator draws from. Cost in the compiler
/// follows expression depth and stencil reach, not tensor size, so depth and
/// reach are what the families vary; the seed varies everything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Elementwise ladder of `param` chained adds.
    Ladder,
    /// Star stencil; `param` is dimensions × 10 + radius.
    Stencil,
    /// Inner product: an in-lattice reduction over the innermost loop.
    Inner,
    /// Outer product: broadcast × broadcast accumulated elementwise.
    Outer,
    /// Indirect gather; must come back near-memory-only.
    Gather,
}

impl Family {
    pub fn label(self) -> &'static str {
        match self {
            Family::Ladder => "gen_ladder",
            Family::Stencil => "gen_stencil",
            Family::Inner => "gen_inner",
            Family::Outer => "gen_outer",
            Family::Gather => "gen_gather",
        }
    }
}

/// The fixed structural plan of one generated batch: (family, param) pairs.
/// Every seed compiles the same plan, because what the compiler charges for
/// is structure (a 12-deep ladder of adds saturates 300 times slower than a
/// 2-deep one); the seed picks tensor sizes and the compile order.
pub fn plan() -> Vec<(Family, u32)> {
    let mut p = Vec::new();
    for chain in [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 2, 4, 6, 8, 10] {
        p.push((Family::Ladder, chain));
    }
    // (dimensions, radius). The 2-D star is `demo::mat_stencil`'s job: it and
    // the radius-2 1-D star each cost about half a second to saturate.
    for (dims, radius) in [(1, 1), (1, 1), (3, 1), (3, 2)] {
        p.push((Family::Stencil, dims * 10 + radius));
    }
    for _ in 0..4 {
        p.push((Family::Inner, 0));
        p.push((Family::Outer, 0));
    }
    for _ in 0..4 {
        p.push((Family::Gather, 0));
    }
    p
}

/// Builds kernel number `i` of a batch.
pub fn kernel(family: Family, param: u32, i: usize, rng: &mut Rng) -> Kernel {
    let name = format!("{}_{i}", family.label());
    let mut k = KernelBuilder::new(name, DataType::F32);
    match family {
        Family::Ladder => {
            let d = 64 << rng.below(3);
            let a = k.array("A", vec![d, d]);
            let b = k.array("B", vec![d, d]);
            let c = k.array("C", vec![d, d]);
            let i = k.parallel_loop("i", 0, d as i64);
            let j = k.parallel_loop("j", 0, d as i64);
            let at = |arr| ScalarExpr::load(arr, vec![Idx::var(i), Idx::var(j)]);
            let mut e = at(a);
            for step in 0..param {
                e = ScalarExpr::add(e, at(if step % 2 == 0 { b } else { a }));
            }
            k.assign(c, vec![Idx::var(i), Idx::var(j)], e);
        }
        Family::Stencil => {
            let (dims, r) = ((param / 10) as usize, (param % 10) as i64);
            let extent = [4096u64, 128, 32][dims - 1] << rng.below(2);
            let a = k.array("A", vec![extent; dims]);
            let b = k.array("B", vec![extent; dims]);
            let loops: Vec<_> = (0..dims)
                .map(|d| k.parallel_loop(format!("i{d}"), r, extent as i64 - r))
                .collect();
            let centre: Vec<Idx> = loops.iter().map(|&l| Idx::var(l)).collect();
            let mut e = ScalarExpr::load(a, centre.clone());
            for d in 0..dims {
                for off in (-r..=r).filter(|&o| o != 0) {
                    let mut idx = centre.clone();
                    idx[d] = Idx::var_plus(loops[d], off);
                    e = ScalarExpr::add(e, ScalarExpr::load(a, idx));
                }
            }
            k.assign(b, centre, e);
        }
        Family::Inner => {
            // C[0][n] = sum_k A[k][0] * B[k][n]; array dimension i follows
            // loop i, so the reduced dimension of C is a singleton.
            let d = 128 << rng.below(2);
            let a = k.array("A", vec![d, 1]);
            let b = k.array("B", vec![d, d]);
            let c = k.array("C", vec![1, d]);
            let kk = k.parallel_loop("k", 0, d as i64);
            let n = k.parallel_loop("n", 0, d as i64);
            let prod = ScalarExpr::mul(
                ScalarExpr::load(a, vec![Idx::var(kk), Idx::constant(0)]),
                ScalarExpr::load(b, vec![Idx::var(kk), Idx::var(n)]),
            );
            k.assign_reduced(
                c,
                vec![Idx::constant(0), Idx::var(n)],
                prod,
                vec![(kk, ReduceOp::Sum)],
            );
        }
        Family::Outer => {
            // C[n][m] += B[n] * A[0][m]
            let d = 128 << rng.below(2);
            let a = k.array("A", vec![1, d]);
            let b = k.array("B", vec![d]);
            let c = k.array("C", vec![d, d]);
            let n = k.parallel_loop("n", 0, d as i64);
            let m = k.parallel_loop("m", 0, d as i64);
            let prod = ScalarExpr::mul(
                ScalarExpr::load(b, vec![Idx::var(n)]),
                ScalarExpr::load(a, vec![Idx::constant(0), Idx::var(m)]),
            );
            k.accum(c, vec![Idx::var(n), Idx::var(m)], ReduceOp::Sum, prod);
        }
        Family::Gather => {
            // G[k][i] = F[k][IDX[i]]
            let (nk, m) = (16 << rng.below(2), 256 << rng.below(2));
            let f = k.array("F", vec![nk, m]);
            let idx = k.array_typed("IDX", vec![m], DataType::I32);
            let g = k.array("G", vec![nk, m]);
            let kk = k.parallel_loop("k", 0, nk as i64);
            let i = k.parallel_loop("i", 0, m as i64);
            let v = ScalarExpr::LoadIndirect {
                array: f,
                dim: 1,
                index: Box::new(ScalarExpr::load(idx, vec![Idx::var(i)])),
                rest: vec![Idx::var(kk), Idx::constant(0)],
            };
            k.assign(g, vec![Idx::var(kk), Idx::var(i)], v);
        }
    }
    k.build().expect("generated kernels are well-formed")
}

// Scalar references for the demo kernels the serve workloads execute. Each is
// written from the kernel's documented meaning, not from its tDFG.

pub fn ref_scale(a: &[f32], p: f32) -> Vec<f32> {
    a.iter().map(|&x| x * p).collect()
}

pub fn ref_vec_add(a: &[f32], b: &[f32]) -> Vec<f32> {
    a.iter().zip(b).map(|(&x, &y)| x + y).collect()
}

/// Interior only; the boundary of B keeps the zeros of freshly reset memory.
pub fn ref_stencil(a: &[f32]) -> Vec<f32> {
    let mut b = vec![0.0; a.len()];
    for i in 1..a.len() - 1 {
        b[i] = a[i - 1] + a[i] + a[i + 1];
    }
    b
}

pub fn ref_mat_update(a: &[f32], b: &[f32], chain: u32) -> Vec<f32> {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (0..chain).fold(x, |acc, step| acc + if step % 2 == 0 { y } else { x }))
        .collect()
}
