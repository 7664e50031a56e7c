//! Gather + MLP layer (Table 3: M = 32k gathered rows, N/K = 128) — the
//! embedding-lookup-plus-dense-layer hybrid: the indirect gather runs
//! near-memory (§3.3), the dense layer runs in-memory in either dataflow, and
//! a final in-memory ReLU finishes the layer.

use crate::util::{compile, fill_small_ints, instantiate, Dataflow};
use crate::{Benchmark, Scale};
use infs_frontend::{Idx, KernelBuilder, ScalarExpr};
use infs_isa::CompiledRegion;
use infs_sdfg::{ArrayDecl, ArrayId, DataType, Memory, ReduceOp};
use infs_sim::{ExecMode, Machine, SimError};
use infs_tdfg::ComputeOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const A_F: ArrayId = ArrayId(0); // F [K, NF] feature table
const A_IDX: ArrayId = ArrayId(1); // IDX [M]
const A_G: ArrayId = ArrayId(2); // G [K, M] gathered rows
const A_W: ArrayId = ArrayId(3); // W: [N, K] (out) / [K, N] (in)
const A_OUT: ArrayId = ArrayId(4); // OUT: [M, N] (out) / [N, M] (in)
const A_BUF_G: ArrayId = ArrayId(5); // bufG [M] (out) / unused (in)
const A_BUF_W: ArrayId = ArrayId(6); // bufW [1, N] (out) / bufWcol [K, 1] (in)

/// `OUT = relu(gather(F, IDX) × W)`.
#[derive(Debug)]
pub struct GatherMlp {
    m: u64,
    nk: u64,
    dataflow: Dataflow,
    name: String,
    gather: CompiledRegion,
    copy_g: Option<CompiledRegion>,
    copy_w: Option<CompiledRegion>,
    step: Option<CompiledRegion>,
    copy_wcol: Option<CompiledRegion>,
    col: Option<CompiledRegion>,
    relu: CompiledRegion,
}

impl GatherMlp {
    /// Table 3: M = 32k, N/K = 128 at paper scale.
    pub fn new(scale: Scale, dataflow: Dataflow) -> Self {
        let (m, nk) = match scale {
            Scale::Paper => (32 * 1024, 128),
            Scale::Test => (256, 16),
        };
        let nf = m; // feature table as large as the gathered set
        let declare = move |k: &mut KernelBuilder, df: Dataflow| {
            k.array("F", vec![nk, nf]);
            k.array_typed("IDX", vec![m], DataType::I32);
            k.array("G", vec![nk, m]);
            match df {
                Dataflow::Outer => k.array("W", vec![nk, nk]), // [N, K], n contiguous
                Dataflow::Inner => k.array("W", vec![nk, nk]), // [K, N], k contiguous
            };
            match df {
                Dataflow::Outer => k.array("OUT", vec![m, nk]), // (m, n)
                Dataflow::Inner => k.array("OUT", vec![nk, m]), // (n, m)
            };
            match df {
                Dataflow::Outer => k.array("bufG", vec![m]),
                Dataflow::Inner => k.array("bufG", vec![1]),
            };
            match df {
                Dataflow::Outer => k.array("bufW", vec![1, nk]),
                Dataflow::Inner => k.array("bufW", vec![nk, 1]),
            };
        };
        // Indirect gather: G[k][i] = F[k][IDX[i]] — near-memory only.
        let gather = {
            let mut kb = KernelBuilder::new("gather", DataType::F32);
            declare(&mut kb, dataflow);
            let k = kb.parallel_loop("k", 0, nk as i64);
            let i = kb.parallel_loop("i", 0, m as i64);
            let v = ScalarExpr::LoadIndirect {
                array: A_F,
                dim: 1,
                index: Box::new(ScalarExpr::load(A_IDX, vec![Idx::var(i)])),
                rest: vec![Idx::var(k), Idx::constant(0)],
            };
            kb.assign(A_G, vec![Idx::var(k), Idx::var(i)], v);
            compile(kb.build().expect("gather builds"), &[])
        };
        // Final activation, element-wise in-memory.
        let relu = {
            let mut kb = KernelBuilder::new("gather_mlp_relu", DataType::F32);
            declare(&mut kb, dataflow);
            let (d0, d1) = match dataflow {
                Dataflow::Outer => (m, nk),
                Dataflow::Inner => (nk, m),
            };
            let x = kb.parallel_loop("x", 0, d0 as i64);
            let y = kb.parallel_loop("y", 0, d1 as i64);
            kb.assign(
                A_OUT,
                vec![Idx::var(x), Idx::var(y)],
                ScalarExpr::un(
                    ComputeOp::Relu,
                    ScalarExpr::load(A_OUT, vec![Idx::var(x), Idx::var(y)]),
                ),
            );
            compile(kb.build().expect("relu builds"), &[])
        };
        let mut gm = GatherMlp {
            m,
            nk,
            dataflow,
            name: format!("gather_mlp/{}", dataflow.suffix()),
            gather,
            copy_g: None,
            copy_w: None,
            step: None,
            copy_wcol: None,
            col: None,
            relu,
        };
        match dataflow {
            Dataflow::Outer => {
                gm.copy_g = Some({
                    let mut kb = KernelBuilder::new("gmlp_copy_g", DataType::F32);
                    declare(&mut kb, dataflow);
                    let ks = kb.sym("k");
                    let i = kb.parallel_loop("i", 0, m as i64);
                    kb.assign(
                        A_BUF_G,
                        vec![Idx::var(i)],
                        ScalarExpr::load(A_G, vec![Idx::sym(ks), Idx::var(i)]),
                    );
                    compile(kb.build().expect("builds"), &[0])
                });
                gm.copy_w = Some({
                    let mut kb = KernelBuilder::new("gmlp_copy_w", DataType::F32);
                    declare(&mut kb, dataflow);
                    let ks = kb.sym("k");
                    let n = kb.parallel_loop("n", 0, nk as i64);
                    kb.assign(
                        A_BUF_W,
                        vec![Idx::constant(0), Idx::var(n)],
                        ScalarExpr::load(A_W, vec![Idx::var(n), Idx::sym(ks)]),
                    );
                    compile(kb.build().expect("builds"), &[0])
                });
                // OUT[i][n] += bufG[i] · bufW[0][n].
                gm.step = Some({
                    let mut kb = KernelBuilder::new("gmlp_step", DataType::F32);
                    declare(&mut kb, dataflow);
                    let i = kb.parallel_loop("i", 0, m as i64);
                    let n = kb.parallel_loop("n", 0, nk as i64);
                    let prod = ScalarExpr::mul(
                        ScalarExpr::load(A_BUF_G, vec![Idx::var(i)]),
                        ScalarExpr::load(A_BUF_W, vec![Idx::constant(0), Idx::var(n)]),
                    );
                    kb.accum(A_OUT, vec![Idx::var(i), Idx::var(n)], ReduceOp::Sum, prod);
                    compile(kb.build().expect("builds"), &[])
                });
            }
            Dataflow::Inner => {
                gm.copy_wcol = Some({
                    let mut kb = KernelBuilder::new("gmlp_copy_wcol", DataType::F32);
                    declare(&mut kb, dataflow);
                    let ns = kb.sym("n");
                    let k = kb.parallel_loop("k", 0, nk as i64);
                    kb.assign(
                        A_BUF_W,
                        vec![Idx::var(k), Idx::constant(0)],
                        ScalarExpr::load(A_W, vec![Idx::var(k), Idx::sym(ns)]),
                    );
                    compile(kb.build().expect("builds"), &[0])
                });
                // OUT[n][i] = Σ_k bufWcol[k] · G[k][i] — in-memory reduce.
                gm.col = Some({
                    let mut kb = KernelBuilder::new("gmlp_col", DataType::F32);
                    declare(&mut kb, dataflow);
                    let ns = kb.sym("n");
                    let k = kb.parallel_loop("k", 0, nk as i64);
                    let i = kb.parallel_loop("i", 0, m as i64);
                    let prod = ScalarExpr::mul(
                        ScalarExpr::load(A_BUF_W, vec![Idx::var(k), Idx::constant(0)]),
                        ScalarExpr::load(A_G, vec![Idx::var(k), Idx::var(i)]),
                    );
                    kb.assign_reduced(
                        A_OUT,
                        vec![Idx::sym(ns), Idx::var(i)],
                        prod,
                        vec![(k, ReduceOp::Sum)],
                    );
                    compile(kb.build().expect("builds"), &[0])
                });
            }
        }
        gm
    }
}

impl Benchmark for GatherMlp {
    fn name(&self) -> &str {
        &self.name
    }

    fn arrays(&self) -> Vec<ArrayDecl> {
        self.gather.kernel().arrays().to_vec()
    }

    fn init(&self, mem: &mut Memory) {
        fill_small_ints(mem, A_F, 111, 4);
        fill_small_ints(mem, A_W, 112, 3);
        let m = self.m;
        let mut rng = StdRng::seed_from_u64(113);
        for v in mem.array_mut(A_IDX) {
            *v = rng.random_range(0..m) as f32;
        }
    }

    fn run(&self, m: &mut Machine, mode: ExecMode) -> Result<(), SimError> {
        m.run_region(&instantiate(&self.gather, &[]), &[], mode)?;
        match self.dataflow {
            Dataflow::Outer => {
                let (cg, cw, step) = (
                    self.copy_g.as_ref().expect("built"),
                    self.copy_w.as_ref().expect("built"),
                    self.step.as_ref().expect("built"),
                );
                let step = instantiate(step, &[]);
                for k in 0..self.nk as i64 {
                    m.run_region(&instantiate(cg, &[k]), &[], mode)?;
                    m.run_region(&instantiate(cw, &[k]), &[], mode)?;
                    m.run_region(&step, &[], mode)?;
                }
            }
            Dataflow::Inner => {
                let (cw, col) = (
                    self.copy_wcol.as_ref().expect("built"),
                    self.col.as_ref().expect("built"),
                );
                for n in 0..self.nk as i64 {
                    m.run_region(&instantiate(cw, &[n]), &[], mode)?;
                    m.run_region(&instantiate(col, &[n]), &[], mode)?;
                }
            }
        }
        m.run_region(&instantiate(&self.relu, &[]), &[], mode)?;
        Ok(())
    }

    fn reference(&self, mem: &mut Memory) {
        let (m, nk) = (self.m as usize, self.nk as usize);
        let f = mem.array(A_F).to_vec();
        let idx = mem.array(A_IDX).to_vec();
        let w = mem.array(A_W).to_vec();
        // Gather.
        {
            let g = mem.array_mut(A_G);
            for i in 0..m {
                let src = idx[i] as usize;
                for k in 0..nk {
                    g[k + i * nk] = f[k + src * nk];
                }
            }
        }
        let g = mem.array(A_G).to_vec();
        let out = mem.array_mut(A_OUT);
        for i in 0..m {
            for n in 0..nk {
                let mut acc = 0.0;
                for k in 0..nk {
                    let wv = match self.dataflow {
                        Dataflow::Outer => w[n + k * nk], // W[n][k]
                        Dataflow::Inner => w[k + n * nk], // W[k][n]
                    };
                    acc += g[k + i * nk] * wv;
                }
                let o = match self.dataflow {
                    Dataflow::Outer => i + n * m,  // OUT[i][n], i contiguous
                    Dataflow::Inner => n + i * nk, // OUT[n][i], n contiguous
                };
                out[o] = acc.max(0.0);
            }
        }
    }

    fn output_arrays(&self) -> Vec<ArrayId> {
        vec![A_OUT]
    }

    fn regions(&self) -> Vec<&CompiledRegion> {
        let mut regions: Vec<&CompiledRegion> = vec![&self.gather, &self.relu];
        regions.extend(
            [
                &self.copy_g,
                &self.copy_w,
                &self.step,
                &self.copy_wcol,
                &self.col,
            ]
            .into_iter()
            .flatten(),
        );
        regions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use infs_sim::SystemConfig;

    #[test]
    fn gather_mlp_outer_verifies() {
        let b = GatherMlp::new(Scale::Test, Dataflow::Outer);
        for mode in [
            ExecMode::Base { threads: 64 },
            ExecMode::NearL3,
            ExecMode::InfS,
        ] {
            verify(&b, mode, &SystemConfig::default()).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        }
    }

    #[test]
    fn gather_mlp_inner_verifies() {
        let b = GatherMlp::new(Scale::Test, Dataflow::Inner);
        for mode in [
            ExecMode::Base { threads: 64 },
            ExecMode::NearL3,
            ExecMode::InfS,
        ] {
            verify(&b, mode, &SystemConfig::default()).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        }
    }
}
