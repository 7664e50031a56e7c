//! Gaussian elimination (forward pass) — Fig 4(c)/Fig 7 of the paper: a
//! sequential pivot loop whose inner 2-D update runs in-memory with two
//! broadcasts, while the multiplier column and the RHS update stay near-memory
//! (low parallelism), and every pivot step re-enters the region with fresh
//! parameters — the shrinking tensors make this the JIT-overhead stress test.

use crate::util::{compile, fill_uniform, instantiate};
use crate::{Benchmark, Scale};
use infs_frontend::{Idx, KernelBuilder, ScalarExpr};
use infs_isa::CompiledRegion;
use infs_sdfg::{ArrayDecl, ArrayId, DataType, Memory, ReduceOp};
use infs_sim::{ExecMode, Machine, SimError};
use infs_tdfg::ComputeOp;

/// Forward elimination on an `n×n` system `A·x = B`.
///
/// Memory layout: `A` stores matrix element `M[r][c]` at `A[c + n·r]`
/// (column index contiguous); lattice dimension 0 is the column.
#[derive(Debug)]
pub struct GaussElim {
    n: u64,
    m_region: CompiledRegion,
    main_region: CompiledRegion,
    b_region: CompiledRegion,
}

impl GaussElim {
    /// Table 3: 2k×2k at paper scale.
    pub fn new(scale: Scale) -> Self {
        let n = match scale {
            Scale::Paper => 2048,
            Scale::Test => 48,
        };
        let declare = |k: &mut KernelBuilder| -> [ArrayId; 3] {
            [
                k.array("A", vec![n, n]),
                k.array("B", vec![n]),
                k.array("MARR", vec![1, n]),
            ]
        };
        // m[r] = A[r][k] / akk for r in (k, n) — a column read with division;
        // streams write the result into the broadcastable tensor m (Fig 7).
        let m_region = {
            let mut kb = KernelBuilder::new("gauss_m", DataType::F32);
            let [a, _, marr] = declare(&mut kb);
            let kv = kb.sym("k");
            let r = kb.parallel_loop_bounds("r", Idx::sym_plus(kv, 1), Idx::constant(n as i64));
            let v = ScalarExpr::bin(
                ComputeOp::Div,
                ScalarExpr::load(a, vec![Idx::sym(kv), Idx::var(r)]),
                ScalarExpr::Param(0),
            );
            kb.assign(marr, vec![Idx::constant(0), Idx::var(r)], v);
            compile(kb.build().expect("gauss_m builds"), &[0])
        };
        // A[r][c] -= M[k][c] · m[r] over the trailing submatrix: pivot row
        // broadcast down, multiplier column broadcast right (Fig 4c).
        let main_region = {
            let mut kb = KernelBuilder::new("gauss_main", DataType::F32);
            let [a, _, marr] = declare(&mut kb);
            let kv = kb.sym("k");
            let c = kb.parallel_loop_bounds("c", Idx::sym_plus(kv, 1), Idx::constant(n as i64));
            let r = kb.parallel_loop_bounds("r", Idx::sym_plus(kv, 1), Idx::constant(n as i64));
            let pivot_row = ScalarExpr::load(a, vec![Idx::var(c), Idx::sym(kv)]);
            let mult = ScalarExpr::load(marr, vec![Idx::constant(0), Idx::var(r)]);
            let delta = ScalarExpr::un(ComputeOp::Neg, ScalarExpr::mul(pivot_row, mult));
            kb.accum(a, vec![Idx::var(c), Idx::var(r)], ReduceOp::Sum, delta);
            compile(kb.build().expect("gauss_main builds"), &[0])
        };
        // B[r] -= m[r] · B[k]: low parallelism, kept as a stream (Fig 7).
        let b_region = {
            let mut kb = KernelBuilder::new("gauss_b", DataType::F32);
            let [_, b, marr] = declare(&mut kb);
            let kv = kb.sym("k");
            let r = kb.parallel_loop_bounds("r", Idx::sym_plus(kv, 1), Idx::constant(n as i64));
            let delta = ScalarExpr::un(
                ComputeOp::Neg,
                ScalarExpr::mul(
                    ScalarExpr::load(marr, vec![Idx::constant(0), Idx::var(r)]),
                    ScalarExpr::Param(0),
                ),
            );
            kb.accum(b, vec![Idx::var(r)], ReduceOp::Sum, delta);
            compile(kb.build().expect("gauss_b builds"), &[0])
        };
        GaussElim {
            n,
            m_region,
            main_region,
            b_region,
        }
    }
}

impl Benchmark for GaussElim {
    fn name(&self) -> &str {
        "gauss_elim"
    }

    fn arrays(&self) -> Vec<ArrayDecl> {
        self.m_region.kernel().arrays().to_vec()
    }

    fn init(&self, mem: &mut Memory) {
        fill_uniform(mem, ArrayId(0), 77, 0.1, 1.0);
        fill_uniform(mem, ArrayId(1), 78, 0.1, 1.0);
        // Diagonal dominance keeps the elimination well-conditioned.
        let n = self.n as usize;
        for k in 0..n {
            mem.array_mut(ArrayId(0))[k + k * n] += n as f32;
        }
    }

    fn run(&self, m: &mut Machine, mode: ExecMode) -> Result<(), SimError> {
        let n = self.n as usize;
        for k in 0..n - 1 {
            // Pivot values come from memory (or are placeholders in
            // timing-only runs, where values do not affect timing).
            let akk = m.memory_ref().array(ArrayId(0))[k + k * n].max(1e-6);
            let mreg = instantiate(&self.m_region, &[k as i64]);
            m.run_region(&mreg, &[akk], mode)?;
            let main = instantiate(&self.main_region, &[k as i64]);
            m.run_region(&main, &[], mode)?;
            let bk = m.memory_ref().array(ArrayId(1))[k];
            let breg = instantiate(&self.b_region, &[k as i64]);
            m.run_region(&breg, &[bk], mode)?;
        }
        Ok(())
    }

    fn reference(&self, mem: &mut Memory) {
        let n = self.n as usize;
        for k in 0..n - 1 {
            let akk = mem.array(ArrayId(0))[k + k * n].max(1e-6);
            let a = mem.array(ArrayId(0)).to_vec();
            // m[r] = A[r][k] / akk.
            let marr = mem.array_mut(ArrayId(2));
            for r in (k + 1)..n {
                marr[r] = a[k + r * n] / akk;
            }
            let marr = mem.array(ArrayId(2)).to_vec();
            let am = mem.array_mut(ArrayId(0));
            for r in (k + 1)..n {
                for c in (k + 1)..n {
                    am[c + r * n] -= a[c + k * n] * marr[r];
                }
            }
            let bk = mem.array(ArrayId(1))[k];
            let b = mem.array_mut(ArrayId(1));
            for r in (k + 1)..n {
                b[r] -= marr[r] * bk;
            }
        }
    }

    fn output_arrays(&self) -> Vec<ArrayId> {
        vec![ArrayId(0), ArrayId(1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use infs_sim::SystemConfig;

    #[test]
    fn gauss_verifies_under_all_modes() {
        let b = GaussElim::new(Scale::Test);
        for mode in [
            ExecMode::Base { threads: 64 },
            ExecMode::NearL3,
            ExecMode::InL3,
            ExecMode::InfS,
        ] {
            verify(&b, mode, &SystemConfig::default()).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        }
    }
}
