//! Dense matrix multiplication (Table 3: M/N/K = 2k) in both dataflows of
//! Fig 8/Fig 15.
//!
//! * **Outer product** (`mm/out`): for each `k`, near-memory streams stage one
//!   column of `A` and one row of `B` into broadcastable buffer tensors, and an
//!   in-memory element-wise round accumulates `C += colA ⊗ rowB`. The round's
//!   tDFG is identical every `k`, so JIT lowering is memoized after the first
//!   round — the paper's preferred in-memory dataflow.
//! * **Inner product** (`mm/in`): for each output row `m`, a 2-D `(k, n)`
//!   region computes `C[m,:] = Σ_k A[k,m]·B[k,:]` with an *in-memory
//!   reduction* over `k` plus a near-memory final reduce — the dataflow the
//!   paper shows losing for in-memory execution.

use crate::util::{compile, fill_small_ints, instantiate, Dataflow};
use crate::{Benchmark, Scale};
use infs_frontend::{Idx, KernelBuilder, ScalarExpr};
use infs_isa::CompiledRegion;
use infs_sdfg::{ArrayDecl, ArrayId, DataType, Memory, ReduceOp};
use infs_sim::{ExecMode, Machine, SimError};

/// `C = A × B` with square `dim×dim` operands.
#[derive(Debug)]
pub struct MatMul {
    dim: u64,
    dataflow: Dataflow,
    name: String,
    // Outer-product regions.
    copy_a: Option<CompiledRegion>,
    copy_b: Option<CompiledRegion>,
    step: Option<CompiledRegion>,
    // Inner-product regions.
    copy_acol: Option<CompiledRegion>,
    row: Option<CompiledRegion>,
}

impl MatMul {
    /// Table 3: M/N/K = 2k at paper scale.
    pub fn new(scale: Scale, dataflow: Dataflow) -> Self {
        let dim = match scale {
            Scale::Paper => 2048,
            Scale::Test => 32,
        };
        let mut mm = MatMul {
            dim,
            dataflow,
            name: format!("mm/{}", dataflow.suffix()),
            copy_a: None,
            copy_b: None,
            step: None,
            copy_acol: None,
            row: None,
        };
        match dataflow {
            Dataflow::Outer => mm.build_outer(),
            Dataflow::Inner => mm.build_inner(),
        }
        mm
    }

    /// Array table (outer): 0 A[K,M] (element (k,m)), 1 B[N,K] (element (n,k)),
    /// 2 C[N,M] (element (n,m)), 3 bufA[1,M], 4 bufB[N].
    fn declare_outer(k: &mut KernelBuilder, d: u64) -> [ArrayId; 5] {
        [
            k.array("A", vec![d, d]),
            k.array("B", vec![d, d]),
            k.array("C", vec![d, d]),
            k.array("bufA", vec![1, d]),
            k.array("bufB", vec![d]),
        ]
    }

    fn build_outer(&mut self) {
        let d = self.dim;
        // bufA[0][m] = A[k][m] — near-memory column staging.
        self.copy_a = Some({
            let mut kb = KernelBuilder::new("mm_out_copy_a", DataType::F32);
            let [a, _, _, buf_a, _] = Self::declare_outer(&mut kb, d);
            let kk = kb.sym("k");
            let m = kb.parallel_loop("m", 0, d as i64);
            kb.assign(
                buf_a,
                vec![Idx::constant(0), Idx::var(m)],
                ScalarExpr::load(a, vec![Idx::sym(kk), Idx::var(m)]),
            );
            compile(kb.build().expect("mm copy_a builds"), &[0])
        });
        // bufB[n] = B[n][k].
        self.copy_b = Some({
            let mut kb = KernelBuilder::new("mm_out_copy_b", DataType::F32);
            let [_, b, _, _, buf_b] = Self::declare_outer(&mut kb, d);
            let kk = kb.sym("k");
            let n = kb.parallel_loop("n", 0, d as i64);
            kb.assign(
                buf_b,
                vec![Idx::var(n)],
                ScalarExpr::load(b, vec![Idx::var(n), Idx::sym(kk)]),
            );
            compile(kb.build().expect("mm copy_b builds"), &[0])
        });
        // C[n][m] += bufB[n] · bufA[0][m] — the memoized in-memory round.
        self.step = Some({
            let mut kb = KernelBuilder::new("mm_out_step", DataType::F32);
            let [_, _, c, buf_a, buf_b] = Self::declare_outer(&mut kb, d);
            let n = kb.parallel_loop("n", 0, d as i64);
            let m = kb.parallel_loop("m", 0, d as i64);
            let prod = ScalarExpr::mul(
                ScalarExpr::load(buf_b, vec![Idx::var(n)]),
                ScalarExpr::load(buf_a, vec![Idx::constant(0), Idx::var(m)]),
            );
            kb.accum(c, vec![Idx::var(n), Idx::var(m)], ReduceOp::Sum, prod);
            compile(kb.build().expect("mm step builds"), &[])
        });
    }

    /// Array table (inner): 0 A[K,M] (element (k,m)), 1 B[K,N] (element (k,n)),
    /// 2 C[M,N] (element (m,n)), 3 bufAcol[K,1].
    fn declare_inner(k: &mut KernelBuilder, d: u64) -> [ArrayId; 4] {
        [
            k.array("A", vec![d, d]),
            k.array("B", vec![d, d]),
            k.array("C", vec![d, d]),
            k.array("bufAcol", vec![d, 1]),
        ]
    }

    fn build_inner(&mut self) {
        let d = self.dim;
        // bufAcol[k][0] = A[k][m] — near-memory staging of A's m-th column.
        self.copy_acol = Some({
            let mut kb = KernelBuilder::new("mm_in_copy_acol", DataType::F32);
            let [a, _, _, buf] = Self::declare_inner(&mut kb, d);
            let mm = kb.sym("m");
            let k = kb.parallel_loop("k", 0, d as i64);
            kb.assign(
                buf,
                vec![Idx::var(k), Idx::constant(0)],
                ScalarExpr::load(a, vec![Idx::var(k), Idx::sym(mm)]),
            );
            compile(kb.build().expect("mm copy_acol builds"), &[0])
        });
        // C[m][n] = Σ_k bufAcol[k] · B[k][n]: in-memory reduce over k.
        self.row = Some({
            let mut kb = KernelBuilder::new("mm_in_row", DataType::F32);
            let [_, b, c, buf] = Self::declare_inner(&mut kb, d);
            let mm = kb.sym("m");
            let k = kb.parallel_loop("k", 0, d as i64);
            let n = kb.parallel_loop("n", 0, d as i64);
            let prod = ScalarExpr::mul(
                ScalarExpr::load(buf, vec![Idx::var(k), Idx::constant(0)]),
                ScalarExpr::load(b, vec![Idx::var(k), Idx::var(n)]),
            );
            kb.assign_reduced(
                c,
                vec![Idx::sym(mm), Idx::var(n)],
                prod,
                vec![(k, ReduceOp::Sum)],
            );
            compile(kb.build().expect("mm row builds"), &[0])
        });
    }
}

impl Benchmark for MatMul {
    fn name(&self) -> &str {
        &self.name
    }

    fn arrays(&self) -> Vec<ArrayDecl> {
        match self.dataflow {
            Dataflow::Outer => self
                .copy_a
                .as_ref()
                .expect("built")
                .kernel()
                .arrays()
                .to_vec(),
            Dataflow::Inner => self
                .copy_acol
                .as_ref()
                .expect("built")
                .kernel()
                .arrays()
                .to_vec(),
        }
    }

    fn init(&self, mem: &mut Memory) {
        fill_small_ints(mem, ArrayId(0), 88, 4);
        fill_small_ints(mem, ArrayId(1), 89, 4);
    }

    fn run(&self, m: &mut Machine, mode: ExecMode) -> Result<(), SimError> {
        let d = self.dim as i64;
        match self.dataflow {
            Dataflow::Outer => {
                let (ca, cb, step) = (
                    self.copy_a.as_ref().expect("built"),
                    self.copy_b.as_ref().expect("built"),
                    self.step.as_ref().expect("built"),
                );
                let step = instantiate(step, &[]);
                for k in 0..d {
                    m.run_region(&instantiate(ca, &[k]), &[], mode)?;
                    m.run_region(&instantiate(cb, &[k]), &[], mode)?;
                    m.run_region(&step, &[], mode)?;
                }
            }
            Dataflow::Inner => {
                let (cc, row) = (
                    self.copy_acol.as_ref().expect("built"),
                    self.row.as_ref().expect("built"),
                );
                for mi in 0..d {
                    m.run_region(&instantiate(cc, &[mi]), &[], mode)?;
                    m.run_region(&instantiate(row, &[mi]), &[], mode)?;
                }
            }
        }
        Ok(())
    }

    fn reference(&self, mem: &mut Memory) {
        let d = self.dim as usize;
        let a = mem.array(ArrayId(0)).to_vec(); // (k, m): A[k + d*m]
        let b = mem.array(ArrayId(1)).to_vec();
        let c = mem.array_mut(ArrayId(2));
        for mi in 0..d {
            for n in 0..d {
                let mut acc = 0.0;
                for k in 0..d {
                    let av = a[k + d * mi];
                    let bv = match self.dataflow {
                        Dataflow::Outer => b[n + d * k], // B[n][k]
                        Dataflow::Inner => b[k + d * n], // B[k][n]
                    };
                    acc += av * bv;
                }
                match self.dataflow {
                    Dataflow::Outer => c[n + d * mi] = acc, // C[n][m]
                    Dataflow::Inner => c[mi + d * n] = acc, // C[m][n]
                }
            }
        }
    }

    fn output_arrays(&self) -> Vec<ArrayId> {
        vec![ArrayId(2)]
    }

    fn regions(&self) -> Vec<&CompiledRegion> {
        [
            &self.copy_a,
            &self.copy_b,
            &self.step,
            &self.copy_acol,
            &self.row,
        ]
        .into_iter()
        .flatten()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use infs_sim::SystemConfig;

    #[test]
    fn mm_outer_verifies() {
        let b = MatMul::new(Scale::Test, Dataflow::Outer);
        for mode in [
            ExecMode::Base { threads: 64 },
            ExecMode::NearL3,
            ExecMode::InfS,
        ] {
            verify(&b, mode, &SystemConfig::default()).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        }
    }

    #[test]
    fn mm_inner_verifies() {
        let b = MatMul::new(Scale::Test, Dataflow::Inner);
        for mode in [
            ExecMode::Base { threads: 64 },
            ExecMode::NearL3,
            ExecMode::InfS,
        ] {
            verify(&b, mode, &SystemConfig::default()).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        }
    }
}
