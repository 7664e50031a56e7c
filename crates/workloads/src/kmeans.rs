//! K-means clustering (Table 3: 32k points, dim = 128, 128 centers) — the
//! paper's flagship *hybrid* workload (§3.3): the distance computation runs
//! in-memory (element-wise accumulation rounds for `kmeans/out`, an in-memory
//! reduction for `kmeans/in`), while the argmin assignment and the indirect
//! centroid update (`cent[assign[p]] += point[p]`) stay near-memory.

use crate::util::{compile, fill_uniform, instantiate, Dataflow};
use crate::{Benchmark, Scale};
use infs_frontend::{Idx, KernelBuilder, ScalarExpr};
use infs_isa::{CompiledRegion, RegionInstance};
use infs_sdfg::{
    AccessFn, AffineMap, ArrayDecl, ArrayId, DataType, Memory, ReduceOp, Sdfg, StreamExpr,
};
use infs_sim::{ExecMode, Machine, SimError};
use infs_tdfg::ComputeOp;

const A_P: ArrayId = ArrayId(0); // P [D, NP]
const A_CENT: ArrayId = ArrayId(1); // CENT [D, NC]
const A_DIST: ArrayId = ArrayId(2); // DIST: [NP, NC] (out) or [NC, NP] (in)
const A_MIND: ArrayId = ArrayId(3); // MIND [NP, 1] (out) / [NP] (in)
const A_ASSIGN: ArrayId = ArrayId(4); // ASSIGN [NP]
const A_CENTNEW: ArrayId = ArrayId(5); // CENTNEW [D, NC]
const A_COUNTS: ArrayId = ArrayId(6); // COUNTS [1, NC]
const A_BUF_P: ArrayId = ArrayId(7); // bufP [NP] (out) / unused (in)
const A_BUF_C: ArrayId = ArrayId(8); // bufC [1, NC] (out) / bufCcol [D, 1] (in)

/// One Lloyd iteration of k-means.
#[derive(Debug)]
pub struct Kmeans {
    np: u64,
    nc: u64,
    d: u64,
    dataflow: Dataflow,
    name: String,
    copy_p: Option<CompiledRegion>,
    copy_c: Option<CompiledRegion>,
    dist_acc: Option<CompiledRegion>,
    mind: Option<CompiledRegion>,
    copy_ccol: Option<CompiledRegion>,
    dist_col: Option<CompiledRegion>,
    finalize: CompiledRegion,
}

impl Kmeans {
    /// Table 3 sizes at paper scale.
    pub fn new(scale: Scale, dataflow: Dataflow) -> Self {
        let (np, nc, d) = match scale {
            Scale::Paper => (32 * 1024, 128, 128),
            Scale::Test => (256, 8, 16),
        };
        let declare = move |k: &mut KernelBuilder, df: Dataflow| {
            k.array("P", vec![d, np]);
            k.array("CENT", vec![d, nc]);
            match df {
                Dataflow::Outer => k.array("DIST", vec![np, nc]),
                Dataflow::Inner => k.array("DIST", vec![nc, np]),
            };
            match df {
                Dataflow::Outer => k.array("MIND", vec![np, 1]),
                Dataflow::Inner => k.array("MIND", vec![np]),
            };
            k.array_typed("ASSIGN", vec![np], DataType::I32);
            k.array("CENTNEW", vec![d, nc]);
            k.array("COUNTS", vec![1, nc]);
            match df {
                Dataflow::Outer => k.array("bufP", vec![np]),
                Dataflow::Inner => k.array("bufP", vec![1]),
            };
            match df {
                Dataflow::Outer => k.array("bufC", vec![1, nc]),
                Dataflow::Inner => k.array("bufC", vec![d, 1]),
            };
        };
        // Final centroid recomputation: CENT = CENTNEW / max(COUNTS·D, 1)·D
        // (counts were accumulated once per (d, p) pair, see the update sdfg).
        let finalize = {
            let mut kb = KernelBuilder::new("kmeans_finalize", DataType::F32);
            declare(&mut kb, dataflow);
            let dd = kb.parallel_loop("d", 0, d as i64);
            let c = kb.parallel_loop("c", 0, nc as i64);
            let count = ScalarExpr::bin(
                ComputeOp::Max,
                ScalarExpr::load(A_COUNTS, vec![Idx::constant(0), Idx::var(c)]),
                ScalarExpr::Const(1.0),
            );
            let v = ScalarExpr::bin(
                ComputeOp::Div,
                ScalarExpr::load(A_CENTNEW, vec![Idx::var(dd), Idx::var(c)]),
                count,
            );
            kb.assign(A_CENT, vec![Idx::var(dd), Idx::var(c)], v);
            compile(kb.build().expect("kmeans finalize builds"), &[])
        };
        let mut km = Kmeans {
            np,
            nc,
            d,
            dataflow,
            name: format!("kmeans/{}", dataflow.suffix()),
            copy_p: None,
            copy_c: None,
            dist_acc: None,
            mind: None,
            copy_ccol: None,
            dist_col: None,
            finalize,
        };
        match dataflow {
            Dataflow::Outer => {
                // bufP[p] = P[d][p]; bufC[0][c] = CENT[d][c] (near-memory).
                km.copy_p = Some({
                    let mut kb = KernelBuilder::new("kmeans_copy_p", DataType::F32);
                    declare(&mut kb, dataflow);
                    let ds = kb.sym("d");
                    let p = kb.parallel_loop("p", 0, np as i64);
                    kb.assign(
                        A_BUF_P,
                        vec![Idx::var(p)],
                        ScalarExpr::load(A_P, vec![Idx::sym(ds), Idx::var(p)]),
                    );
                    compile(kb.build().expect("builds"), &[0])
                });
                km.copy_c = Some({
                    let mut kb = KernelBuilder::new("kmeans_copy_c", DataType::F32);
                    declare(&mut kb, dataflow);
                    let ds = kb.sym("d");
                    let c = kb.parallel_loop("c", 0, nc as i64);
                    kb.assign(
                        A_BUF_C,
                        vec![Idx::constant(0), Idx::var(c)],
                        ScalarExpr::load(A_CENT, vec![Idx::sym(ds), Idx::var(c)]),
                    );
                    compile(kb.build().expect("builds"), &[0])
                });
                // DIST[p][c] += (bufP[p] - bufC[0][c])² — memoized in-memory round.
                km.dist_acc = Some({
                    let mut kb = KernelBuilder::new("kmeans_dist_acc", DataType::F32);
                    declare(&mut kb, dataflow);
                    let p = kb.parallel_loop("p", 0, np as i64);
                    let c = kb.parallel_loop("c", 0, nc as i64);
                    let diff = ScalarExpr::sub(
                        ScalarExpr::load(A_BUF_P, vec![Idx::var(p)]),
                        ScalarExpr::load(A_BUF_C, vec![Idx::constant(0), Idx::var(c)]),
                    );
                    kb.accum(
                        A_DIST,
                        vec![Idx::var(p), Idx::var(c)],
                        ReduceOp::Sum,
                        ScalarExpr::mul(diff.clone(), diff),
                    );
                    compile(kb.build().expect("builds"), &[])
                });
                // MIND[p] = min_c DIST[p][c] — in-memory reduction over c.
                km.mind = Some({
                    let mut kb = KernelBuilder::new("kmeans_mind", DataType::F32);
                    declare(&mut kb, dataflow);
                    let p = kb.parallel_loop("p", 0, np as i64);
                    let c = kb.parallel_loop("c", 0, nc as i64);
                    kb.assign_reduced(
                        A_MIND,
                        vec![Idx::var(p), Idx::constant(0)],
                        ScalarExpr::load(A_DIST, vec![Idx::var(p), Idx::var(c)]),
                        vec![(c, ReduceOp::Min)],
                    );
                    compile(kb.build().expect("builds"), &[])
                });
            }
            Dataflow::Inner => {
                // bufCcol[d][0] = CENT[d][c] (near-memory).
                km.copy_ccol = Some({
                    let mut kb = KernelBuilder::new("kmeans_copy_ccol", DataType::F32);
                    declare(&mut kb, dataflow);
                    let cs = kb.sym("c");
                    let dd = kb.parallel_loop("d", 0, d as i64);
                    kb.assign(
                        A_BUF_C,
                        vec![Idx::var(dd), Idx::constant(0)],
                        ScalarExpr::load(A_CENT, vec![Idx::var(dd), Idx::sym(cs)]),
                    );
                    compile(kb.build().expect("builds"), &[0])
                });
                // DIST[c][p] = Σ_d (P[d][p] - bufCcol[d])² — in-memory reduce.
                km.dist_col = Some({
                    let mut kb = KernelBuilder::new("kmeans_dist_col", DataType::F32);
                    declare(&mut kb, dataflow);
                    let cs = kb.sym("c");
                    let dd = kb.parallel_loop("d", 0, d as i64);
                    let p = kb.parallel_loop("p", 0, np as i64);
                    let diff = ScalarExpr::sub(
                        ScalarExpr::load(A_P, vec![Idx::var(dd), Idx::var(p)]),
                        ScalarExpr::load(A_BUF_C, vec![Idx::var(dd), Idx::constant(0)]),
                    );
                    kb.assign_reduced(
                        A_DIST,
                        vec![Idx::sym(cs), Idx::var(p)],
                        ScalarExpr::mul(diff.clone(), diff),
                        vec![(dd, ReduceOp::Sum)],
                    );
                    compile(kb.build().expect("builds"), &[0])
                });
            }
        }
        km
    }

    fn array_table(&self) -> Vec<ArrayDecl> {
        self.finalize.kernel().arrays().to_vec()
    }

    /// Near-memory argmin pass: `ASSIGN[p] = c` for the last `c` whose distance
    /// equals the minimum (the select-chain of §3.3's irregularity support).
    fn argmin_region(&self) -> RegionInstance {
        let (np, nc) = (self.np, self.nc);
        let mut g = Sdfg::new(vec![nc, np]); // c innermost
        g.set_arrays(self.array_table());
        let dist_map = match self.dataflow {
            // DIST[p][c]: coord0 = p (iv1), coord1 = c (iv0).
            Dataflow::Outer => AffineMap {
                array: A_DIST,
                offset: vec![0, 0],
                coeffs: vec![vec![0, 1], vec![1, 0]],
            },
            // DIST[c][p].
            Dataflow::Inner => AffineMap {
                array: A_DIST,
                offset: vec![0, 0],
                coeffs: vec![vec![1, 0], vec![0, 1]],
            },
        };
        let ld = g.load(AccessFn::Affine(dist_map));
        let mind_map = match self.dataflow {
            Dataflow::Outer => AffineMap {
                array: A_MIND,
                offset: vec![0, 0],
                coeffs: vec![vec![0, 1], vec![0, 0]],
            },
            Dataflow::Inner => AffineMap {
                array: A_MIND,
                offset: vec![0],
                coeffs: vec![vec![0, 1]],
            },
        };
        let lm = g.load(AccessFn::Affine(mind_map));
        let assign_map = AffineMap {
            array: A_ASSIGN,
            offset: vec![0],
            coeffs: vec![vec![0, 1]],
        };
        let la = g.load(AccessFn::Affine(assign_map.clone()));
        let vd = g.stream_val(ld);
        let vm = g.stream_val(lm);
        let va = g.stream_val(la);
        let cval = g.expr(StreamExpr::LoopVar(0));
        // is_min = 1 - (mind < dist)  (dist >= mind always).
        let lt = g.expr(StreamExpr::Bin(infs_sdfg::BinOp::Lt, vm, vd));
        let one = g.expr(StreamExpr::Const(1.0));
        let is_min = g.expr(StreamExpr::Bin(infs_sdfg::BinOp::Sub, one, lt));
        let sel = g.expr(StreamExpr::Select(is_min, cval, va));
        g.store(AccessFn::Affine(assign_map), sel);
        RegionInstance {
            name: "kmeans_argmin".into(),
            syms: Vec::new(),
            tdfg: None,
            sdfg: g,
            schedules: Vec::new(),
            hints: Default::default(),
            profile: Default::default(),
        }
    }

    /// Near-memory MIND initialization for the inner dataflow (`+∞`).
    fn mind_init_region(&self) -> RegionInstance {
        let mut g = Sdfg::new(vec![self.np]);
        g.set_arrays(self.array_table());
        let inf = g.expr(StreamExpr::Const(f32::MAX));
        let map = match self.dataflow {
            Dataflow::Outer => AffineMap {
                array: A_MIND,
                offset: vec![0, 0],
                coeffs: vec![vec![1], vec![0]],
            },
            Dataflow::Inner => AffineMap::identity(A_MIND, 1),
        };
        g.store(AccessFn::Affine(map), inf);
        RegionInstance {
            name: "kmeans_mind_init".into(),
            syms: Vec::new(),
            tdfg: None,
            sdfg: g,
            schedules: Vec::new(),
            hints: Default::default(),
            profile: Default::default(),
        }
    }

    /// Near-memory MIND accumulation for the inner dataflow:
    /// `MIND[p] = min(MIND[p], DIST[c][p])` over all `(c, p)`.
    fn mind_update_region(&self) -> RegionInstance {
        let (np, nc) = (self.np, self.nc);
        let mut g = Sdfg::new(vec![nc, np]);
        g.set_arrays(self.array_table());
        let ld = g.load(AccessFn::Affine(AffineMap {
            array: A_DIST,
            offset: vec![0, 0],
            coeffs: vec![vec![1, 0], vec![0, 1]],
        }));
        let v = g.stream_val(ld);
        g.update(
            AccessFn::Affine(AffineMap {
                array: A_MIND,
                offset: vec![0],
                coeffs: vec![vec![0, 1]],
            }),
            ReduceOp::Min,
            v,
        );
        RegionInstance {
            name: "kmeans_mind_update".into(),
            syms: Vec::new(),
            tdfg: None,
            sdfg: g,
            schedules: Vec::new(),
            hints: Default::default(),
            profile: Default::default(),
        }
    }

    /// The indirect centroid update (near-memory, §3.3):
    /// `CENTNEW[d][assign[p]] += P[d][p]` and `COUNTS[0][assign[p]] += 1/D`.
    fn update_region(&self) -> RegionInstance {
        let (np, d) = (self.np, self.d);
        let mut g = Sdfg::new(vec![d, np]); // d innermost
        g.set_arrays(self.array_table());
        let la = g.load(AccessFn::Affine(AffineMap {
            array: A_ASSIGN,
            offset: vec![0],
            coeffs: vec![vec![0, 1]],
        }));
        let lp = g.load(AccessFn::identity(A_P, 2));
        let vp = g.stream_val(lp);
        g.update(
            AccessFn::Indirect {
                array: A_CENTNEW,
                index_stream: la,
                dim: 1,
                rest: AffineMap {
                    array: A_CENTNEW,
                    offset: vec![0, 0],
                    coeffs: vec![vec![1, 0], vec![0, 0]],
                },
            },
            ReduceOp::Sum,
            vp,
        );
        // Count 1/D per (d, p) pair so the total per point is exactly 1.
        let frac = g.expr(StreamExpr::Const(1.0 / d as f32));
        g.update(
            AccessFn::Indirect {
                array: A_COUNTS,
                index_stream: la,
                dim: 1,
                rest: AffineMap {
                    array: A_COUNTS,
                    offset: vec![0, 0],
                    coeffs: vec![vec![0, 0], vec![0, 0]],
                },
            },
            ReduceOp::Sum,
            frac,
        );
        RegionInstance {
            name: "kmeans_update".into(),
            syms: Vec::new(),
            tdfg: None,
            sdfg: g,
            schedules: Vec::new(),
            hints: Default::default(),
            profile: Default::default(),
        }
    }
}

impl Benchmark for Kmeans {
    fn name(&self) -> &str {
        &self.name
    }

    fn arrays(&self) -> Vec<ArrayDecl> {
        self.array_table()
    }

    fn init(&self, mem: &mut Memory) {
        fill_uniform(mem, A_P, 101, 0.0, 1.0);
        // Initial centroids: the first NC points.
        let (np, nc, d) = (self.np as usize, self.nc as usize, self.d as usize);
        let _ = np;
        let p = mem.array(A_P).to_vec();
        let cent = mem.array_mut(A_CENT);
        for c in 0..nc {
            for dd in 0..d {
                cent[dd + c * d] = p[dd + c * d];
            }
        }
    }

    fn run(&self, m: &mut Machine, mode: ExecMode) -> Result<(), SimError> {
        match self.dataflow {
            Dataflow::Outer => {
                let (cp, cc, acc) = (
                    self.copy_p.as_ref().expect("built"),
                    self.copy_c.as_ref().expect("built"),
                    self.dist_acc.as_ref().expect("built"),
                );
                let acc_inst = instantiate(acc, &[]);
                for dd in 0..self.d as i64 {
                    m.run_region(&instantiate(cp, &[dd]), &[], mode)?;
                    m.run_region(&instantiate(cc, &[dd]), &[], mode)?;
                    m.run_region(&acc_inst, &[], mode)?;
                }
                // MIND must start at the Min identity for the stream path
                // (reduced assigns accumulate onto the target's contents).
                m.run_region(&self.mind_init_region(), &[], mode)?;
                let mind = instantiate(self.mind.as_ref().expect("built"), &[]);
                m.run_region(&mind, &[], mode)?;
            }
            Dataflow::Inner => {
                let (cc, dc) = (
                    self.copy_ccol.as_ref().expect("built"),
                    self.dist_col.as_ref().expect("built"),
                );
                for c in 0..self.nc as i64 {
                    m.run_region(&instantiate(cc, &[c]), &[], mode)?;
                    m.run_region(&instantiate(dc, &[c]), &[], mode)?;
                }
                m.run_region(&self.mind_init_region(), &[], mode)?;
                m.run_region(&self.mind_update_region(), &[], mode)?;
            }
        }
        m.run_region(&self.argmin_region(), &[], mode)?;
        m.run_region(&self.update_region(), &[], mode)?;
        let fin = instantiate(&self.finalize, &[]);
        m.run_region(&fin, &[], mode)?;
        Ok(())
    }

    fn reference(&self, mem: &mut Memory) {
        let (np, nc, d) = (self.np as usize, self.nc as usize, self.d as usize);
        let p = mem.array(A_P).to_vec();
        let cent = mem.array(A_CENT).to_vec();
        // Distances + assignment (last index among equal minima, matching the
        // ascending select chain).
        let mut assign = vec![0usize; np];
        let mut dist = vec![0.0f32; np * nc];
        for pi in 0..np {
            let mut best = f32::MAX;
            for c in 0..nc {
                let mut acc = 0.0;
                for dd in 0..d {
                    let diff = p[dd + pi * d] - cent[dd + c * d];
                    acc += diff * diff;
                }
                dist[match self.dataflow {
                    Dataflow::Outer => pi + c * np,
                    Dataflow::Inner => c + pi * nc,
                }] = acc;
                if acc < best {
                    best = acc;
                }
            }
            for c in 0..nc {
                let v = dist[match self.dataflow {
                    Dataflow::Outer => pi + c * np,
                    Dataflow::Inner => c + pi * nc,
                }];
                if v == best {
                    assign[pi] = c; // last equal minimum wins
                }
            }
        }
        // Indirect update + finalize.
        let mut centnew = vec![0.0f32; d * nc];
        let mut counts = vec![0.0f32; nc];
        for pi in 0..np {
            let c = assign[pi];
            counts[c] += 1.0;
            for dd in 0..d {
                centnew[dd + c * d] += p[dd + pi * d];
            }
        }
        let centm = mem.array_mut(A_CENT);
        for c in 0..nc {
            for dd in 0..d {
                centm[dd + c * d] = centnew[dd + c * d] / counts[c].max(1.0);
            }
        }
        let am = mem.array_mut(A_ASSIGN);
        for pi in 0..np {
            am[pi] = assign[pi] as f32;
        }
    }

    fn output_arrays(&self) -> Vec<ArrayId> {
        vec![A_CENT, A_ASSIGN]
    }

    fn regions(&self) -> Vec<&CompiledRegion> {
        let mut regions: Vec<&CompiledRegion> = vec![&self.finalize];
        regions.extend(
            [
                &self.copy_p,
                &self.copy_c,
                &self.dist_acc,
                &self.mind,
                &self.copy_ccol,
                &self.dist_col,
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
    fn kmeans_outer_verifies() {
        let b = Kmeans::new(Scale::Test, Dataflow::Outer);
        for mode in [
            ExecMode::Base { threads: 64 },
            ExecMode::NearL3,
            ExecMode::InfS,
        ] {
            verify(&b, mode, &SystemConfig::default()).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        }
    }

    #[test]
    fn kmeans_inner_verifies() {
        let b = Kmeans::new(Scale::Test, Dataflow::Inner);
        for mode in [
            ExecMode::Base { threads: 64 },
            ExecMode::NearL3,
            ExecMode::InfS,
        ] {
            verify(&b, mode, &SystemConfig::default()).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        }
    }
}
