//! The head of the two Table-3 rows that do not fit a benchmark run.
//!
//! A full Inf-S pass of `gauss_elim` (2 047 pivots) and `conv3d` (576 rounds)
//! at `Scale::Paper` takes about 20 s and 13 s of host time on the 2-core
//! box this benchmark was sized on, nearly all of it JIT template hits at
//! about 10 ms and 23 ms per region entry. The driver allows about 35 s for a
//! whole run, repeated 23 times per workload, so `paper_suite` times the
//! first pivots and rounds of the same problem at the same Table-3 size: the
//! per-entry cost a later optimisation would attack is all there, and the
//! row stays a second or so long. The kernels below restate
//! `infs_workloads::{GaussElim, Conv3d}` because those keep their regions
//! private and run every iteration; the full rows are verified against their
//! scalar references at `Scale::Test` through the real types.

use infs_frontend::{Idx, KernelBuilder, ScalarExpr};
use infs_isa::{CompiledRegion, Compiler};
use infs_sdfg::{ArrayDecl, ArrayId, DataType, ReduceOp};
use infs_sim::{ExecMode, Machine, SimError};
use infs_tdfg::ComputeOp;

/// Pivot steps of the 2k×2k elimination that `gauss_elim` times.
pub const GAUSS_PIVOTS: i64 = 24;
/// (input channel, tap) rounds of the 256×256×64 convolution that `conv3d` times.
pub const CONV3D_ROUNDS: i64 = 12;

fn compile(k: KernelBuilder, syms: &[i64]) -> CompiledRegion {
    // Not e-graph optimised: the regions are re-instantiated at every entry
    // with nothing to discover, exactly as the workloads crate compiles them.
    let compiler = Compiler {
        optimize: false,
        ..Compiler::default()
    };
    compiler
        .compile(k.build().expect("head kernels are well-formed"), syms)
        .expect("head kernels compile")
}

pub struct GaussHead {
    m: CompiledRegion,
    main: CompiledRegion,
    b: CompiledRegion,
}

impl GaussHead {
    pub fn new() -> Self {
        let n: u64 = 2048;
        let declare = |k: &mut KernelBuilder| -> [ArrayId; 3] {
            [
                k.array("A", vec![n, n]),
                k.array("B", vec![n]),
                k.array("MARR", vec![1, n]),
            ]
        };
        let below_pivot = |k: &mut KernelBuilder, name: &str| {
            let kv = k.sym("k");
            let l = k.parallel_loop_bounds(name, Idx::sym_plus(kv, 1), Idx::constant(n as i64));
            (kv, l)
        };
        // m[r] = A[r][k] / akk
        let m = {
            let mut k = KernelBuilder::new("gauss_m", DataType::F32);
            let [a, _, marr] = declare(&mut k);
            let (kv, r) = below_pivot(&mut k, "r");
            let v = ScalarExpr::bin(
                ComputeOp::Div,
                ScalarExpr::load(a, vec![Idx::sym(kv), Idx::var(r)]),
                ScalarExpr::Param(0),
            );
            k.assign(marr, vec![Idx::constant(0), Idx::var(r)], v);
            compile(k, &[0])
        };
        // A[r][c] -= A[k][c] * m[r] over the trailing submatrix
        let main = {
            let mut k = KernelBuilder::new("gauss_main", DataType::F32);
            let [a, _, marr] = declare(&mut k);
            let kv = k.sym("k");
            let c = k.parallel_loop_bounds("c", Idx::sym_plus(kv, 1), Idx::constant(n as i64));
            let r = k.parallel_loop_bounds("r", Idx::sym_plus(kv, 1), Idx::constant(n as i64));
            let delta = ScalarExpr::un(
                ComputeOp::Neg,
                ScalarExpr::mul(
                    ScalarExpr::load(a, vec![Idx::var(c), Idx::sym(kv)]),
                    ScalarExpr::load(marr, vec![Idx::constant(0), Idx::var(r)]),
                ),
            );
            k.accum(a, vec![Idx::var(c), Idx::var(r)], ReduceOp::Sum, delta);
            compile(k, &[0])
        };
        // B[r] -= m[r] * B[k]
        let b = {
            let mut k = KernelBuilder::new("gauss_b", DataType::F32);
            let [_, b, marr] = declare(&mut k);
            let (_, r) = below_pivot(&mut k, "r");
            let delta = ScalarExpr::un(
                ComputeOp::Neg,
                ScalarExpr::mul(
                    ScalarExpr::load(marr, vec![Idx::constant(0), Idx::var(r)]),
                    ScalarExpr::Param(0),
                ),
            );
            k.accum(b, vec![Idx::var(r)], ReduceOp::Sum, delta);
            compile(k, &[0])
        };
        GaussHead { m, main, b }
    }

    pub fn arrays(&self) -> Vec<ArrayDecl> {
        self.m.kernel().arrays().to_vec()
    }

    /// Timing-only: the parameters are placeholders, as in `run_timed`.
    pub fn run(&self, m: &mut Machine, mode: ExecMode) -> Result<(), SimError> {
        for k in 0..GAUSS_PIVOTS {
            for (region, params) in [
                (&self.m, &[1.0f32][..]),
                (&self.main, &[]),
                (&self.b, &[1.0]),
            ] {
                let inst = region.instantiate(&[k]).expect("head regions instantiate");
                m.run_region(&inst, params, mode)?;
            }
        }
        Ok(())
    }
}

pub struct Conv3dHead {
    wcopy: CompiledRegion,
    acc: CompiledRegion,
}

impl Conv3dHead {
    pub fn new() -> Self {
        let (hw, chans): (u64, u64) = (256, 64);
        let declare = |k: &mut KernelBuilder| -> [ArrayId; 4] {
            [
                k.array("IN", vec![hw, hw, chans]),
                k.array("OUT", vec![hw, hw, chans]),
                k.array("WT", vec![chans, chans, 9]),
                k.array("WBUF", vec![1, 1, chans]),
            ]
        };
        // WBUF[0][0][co] = WT[co][ci][t]
        let wcopy = {
            let mut k = KernelBuilder::new("conv3d_wcopy", DataType::F32);
            let [_, _, wt, wbuf] = declare(&mut k);
            let ci = k.sym("ci");
            let t = k.sym("t");
            let co = k.parallel_loop("co", 0, chans as i64);
            k.assign(
                wbuf,
                vec![Idx::constant(0), Idx::constant(0), Idx::var(co)],
                ScalarExpr::load(wt, vec![Idx::var(co), Idx::sym(ci), Idx::sym(t)]),
            );
            compile(k, &[0, 0])
        };
        // OUT[x][y][co] += IN[x+dx][y+dy][ci] * WBUF[0][0][co]
        let acc = {
            let mut k = KernelBuilder::new("conv3d_acc", DataType::F32);
            let [inp, out, _, wbuf] = declare(&mut k);
            let ci = k.sym("ci");
            let dx = k.sym("dx");
            let dy = k.sym("dy");
            let x = k.parallel_loop("x", 1, hw as i64 - 1);
            let y = k.parallel_loop("y", 1, hw as i64 - 1);
            let co = k.parallel_loop("co", 0, chans as i64);
            let tap = ScalarExpr::load(
                inp,
                vec![
                    Idx::var(x).plus_sym(dx, 1),
                    Idx::var(y).plus_sym(dy, 1),
                    Idx::sym(ci),
                ],
            );
            let w = ScalarExpr::load(wbuf, vec![Idx::constant(0), Idx::constant(0), Idx::var(co)]);
            k.accum(
                out,
                vec![Idx::var(x), Idx::var(y), Idx::var(co)],
                ReduceOp::Sum,
                ScalarExpr::mul(tap, w),
            );
            compile(k, &[0, 0, 0])
        };
        Conv3dHead { wcopy, acc }
    }

    pub fn arrays(&self) -> Vec<ArrayDecl> {
        self.wcopy.kernel().arrays().to_vec()
    }

    pub fn run(&self, m: &mut Machine, mode: ExecMode) -> Result<(), SimError> {
        for round in 0..CONV3D_ROUNDS {
            let (ci, t) = (round / 9, round % 9);
            let (dx, dy) = (t % 3 - 1, t / 3 - 1);
            let wcopy = self
                .wcopy
                .instantiate(&[ci, t])
                .expect("head regions instantiate");
            m.run_region(&wcopy, &[], mode)?;
            let acc = self
                .acc
                .instantiate(&[ci, dx, dy])
                .expect("head regions instantiate");
            m.run_region(&acc, &[], mode)?;
        }
        Ok(())
    }
}
