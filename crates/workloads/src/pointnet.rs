//! PointNet++ classification inference (the paper's end-to-end case study,
//! §8 / Fig 19 / Table 4), in both network shapes:
//!
//! * **SSG** — SA1 → SA2 → SA3 → FC×3;
//! * **MSG** — [SA4,SA5,SA6] → [SA7,SA8,SA9] → SA3 → FC×3, with each group
//!   sharing sampled centroids and concatenating output features.
//!
//! Each set-abstraction (SA) stage runs its five phases on the paradigm the
//! fused runtime picks, exactly as the paper describes:
//!
//! | phase | execution |
//! |---|---|
//! | furthest sample | iterative near-memory distance updates + max reduction |
//! | ball query | near-memory radius mask over (point, centroid) pairs |
//! | gather | near-memory one-level indirect feature collection |
//! | MLP ×3 | in-memory outer-product rounds + ReLU (small layers stay off-bitline via Eq 2) |
//! | aggregate | in-memory max-reduction over each centroid's neighbors |
//!
//! The point cloud is 4k random points in `[0,1)³` — the paper's own input.
//! Neighbor-list *construction* (compaction of the radius mask into indices)
//! is data-dependent control flow that neither tensors nor streams express; it
//! runs host-side functionally while its scan work is timed by the mask
//! region, a substitution recorded in DESIGN.md.

use crate::util::{compile, fill_uniform, instantiate};
use crate::{Benchmark, Scale};
use infs_frontend::{Idx, Kernel, KernelBuilder, ScalarExpr, TensorTable};
use infs_isa::CompiledRegion;
use infs_pipeline::{PipelineBuilder, PipelineGraph};
use infs_sdfg::{ArrayDecl, ArrayId, DataType, Memory, ReduceOp};
use infs_sim::{ExecMode, Executed, Machine, SimError};
use infs_tdfg::ComputeOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which PointNet++ classifier to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointNetVariant {
    /// Single-scale grouping.
    Ssg,
    /// Multi-scale grouping.
    Msg,
}

/// Per-stage timing record for the Fig 19 timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage label (e.g. `"SA1"`, `"FC"`).
    pub stage: String,
    /// Phase label (e.g. `"sample"`, `"mlp"`).
    pub phase: &'static str,
    /// Cycles spent.
    pub cycles: u64,
    /// Where the phase ran.
    pub executed: Executed,
}

/// Set-abstraction parameters (one row of Table 4).
#[derive(Debug, Clone, Copy)]
struct SaParams {
    k: u64,
    n: u64,
    r: f32,
    dims: [u64; 3],
}

/// A feature source for the gather phase (supports MSG concatenation).
#[derive(Debug, Clone, Copy)]
enum FeatSrc {
    /// Raw coordinates `[3, np]` (dim index is coordinate).
    Pts(ArrayId),
    /// A previous stage's aggregate `[1, k_prev, d]`.
    Agg(ArrayId, u64),
}

impl FeatSrc {
    fn dims(&self) -> u64 {
        match self {
            FeatSrc::Pts(_) => 3,
            FeatSrc::Agg(_, d) => *d,
        }
    }
}

/// One set-abstraction stage's parameters and array layout.
#[derive(Debug)]
struct SaStage {
    label: String,
    p: SaParams,
    np_in: u64,
    src_pts: ArrayId,
    feat_srcs: Vec<FeatSrc>,
    din: u64,
    /// Reuse centroids sampled by an earlier stage of the same group.
    sample_here: bool,
    cpts: ArrayId,
    mind: ArrayId,
    mask: ArrayId,
    neigh: ArrayId,
    gf: ArrayId,
    louts: [ArrayId; 3],
    bufg: ArrayId,
    bufw: [ArrayId; 3],
    weights: [ArrayId; 3],
    agg: ArrayId,
}

/// One set-abstraction stage's compiled regions, built by
/// [`SaStage::build_kernels`] once the global array table exists.
#[derive(Debug)]
struct SaRegions {
    mind_init: CompiledRegion,
    fs_dist: CompiledRegion,
    fs_max: CompiledRegion,
    ballq: CompiledRegion,
    gathers: Vec<CompiledRegion>,
    copy_g: [CompiledRegion; 3],
    copy_w: [CompiledRegion; 3],
    step: [CompiledRegion; 3],
    relu: [CompiledRegion; 3],
    mlp_inner: [CompiledRegion; 3],
    aggregate: CompiledRegion,
}

fn declare_all(kb: &mut KernelBuilder, decls: &[ArrayDecl]) {
    for d in decls {
        kb.array_typed(d.name.clone(), d.shape.clone(), d.dtype);
    }
}

/// Dense MLP layer `OUT[j][c][o] = Σ_kk IN[j][c][kk] · W[o][kk]` — the fused
/// inner-product form shared by the per-kernel path and the tail graph.
#[allow(clippy::too_many_arguments)]
fn dense_mlp_kernel(
    decls: &[ArrayDecl],
    name: String,
    input: ArrayId,
    weight: ArrayId,
    out: ArrayId,
    n: u64,
    k: u64,
    din: u64,
    dout: u64,
) -> Kernel {
    let mut kb = KernelBuilder::new(name, DataType::F32);
    declare_all(&mut kb, decls);
    let kk = kb.parallel_loop("kk", 0, din as i64);
    let j = kb.parallel_loop("j", 0, n as i64);
    let c = kb.parallel_loop("c", 0, k as i64);
    let o = kb.parallel_loop("o", 0, dout as i64);
    let prod = ScalarExpr::mul(
        ScalarExpr::load(input, vec![Idx::var(j), Idx::var(c), Idx::var(kk)]),
        ScalarExpr::load(weight, vec![Idx::var(o), Idx::var(kk)]),
    );
    kb.assign_reduced(
        out,
        vec![Idx::var(j), Idx::var(c), Idx::var(o)],
        prod,
        vec![(kk, ReduceOp::Sum)],
    );
    kb.build().expect("mlp kernel builds")
}

/// `DST = relu(SRC)` element-wise over `SRC`'s full shape (any rank). With
/// `dst == src` this is the in-place form the per-kernel path uses; the tail
/// graph passes a fresh activation tensor to keep one producer per tensor.
fn relu_kernel(decls: &[ArrayDecl], name: String, src: ArrayId, dst: ArrayId) -> Kernel {
    let mut kb = KernelBuilder::new(name, DataType::F32);
    declare_all(&mut kb, decls);
    const LOOPS: [&str; 4] = ["j", "c", "o", "q"];
    let idx: Vec<Idx> = decls[src.0 as usize]
        .shape
        .clone()
        .iter()
        .enumerate()
        .map(|(d, &ext)| Idx::var(kb.parallel_loop(LOOPS[d], 0, ext as i64)))
        .collect();
    kb.assign(
        dst,
        idx.clone(),
        ScalarExpr::un(ComputeOp::Relu, ScalarExpr::load(src, idx)),
    );
    kb.build().expect("relu kernel builds")
}

/// Neighborhood max-pool `DST[0][c][o] = max_j SRC[j][c][o]`.
fn agg_kernel(
    decls: &[ArrayDecl],
    name: String,
    src: ArrayId,
    dst: ArrayId,
    n: u64,
    k: u64,
    d: u64,
) -> Kernel {
    let mut kb = KernelBuilder::new(name, DataType::F32);
    declare_all(&mut kb, decls);
    let j = kb.parallel_loop("j", 0, n as i64);
    let c = kb.parallel_loop("c", 0, k as i64);
    let o = kb.parallel_loop("o", 0, d as i64);
    kb.assign_reduced(
        dst,
        vec![Idx::constant(0), Idx::var(c), Idx::var(o)],
        ScalarExpr::load(src, vec![Idx::var(j), Idx::var(c), Idx::var(o)]),
        vec![(j, ReduceOp::Max)],
    );
    kb.build().expect("aggregate kernel builds")
}

/// FC head layer `OUT[0][o] = Σ_i IN[..][i] · W[i][o]`; the first layer reads
/// the rank-3 global feature, later layers a rank-2 activation vector.
#[allow(clippy::too_many_arguments)]
fn fc_kernel(
    decls: &[ArrayDecl],
    name: String,
    input: ArrayId,
    input_rank3: bool,
    weight: ArrayId,
    out: ArrayId,
    din: u64,
    dout: u64,
) -> Kernel {
    let mut kb = KernelBuilder::new(name, DataType::F32);
    declare_all(&mut kb, decls);
    let i = kb.parallel_loop("i", 0, din as i64);
    let o = kb.parallel_loop("o", 0, dout as i64);
    let input = if input_rank3 {
        ScalarExpr::load(input, vec![Idx::constant(0), Idx::constant(0), Idx::var(i)])
    } else {
        ScalarExpr::load(input, vec![Idx::constant(0), Idx::var(i)])
    };
    let w = ScalarExpr::load(weight, vec![Idx::var(i), Idx::var(o)]);
    kb.assign_reduced(
        out,
        vec![Idx::constant(0), Idx::var(o)],
        ScalarExpr::mul(input, w),
        vec![(i, ReduceOp::Sum)],
    );
    kb.build().expect("fc kernel builds")
}

/// PointNet++ classifier inference over a random 4k-point cloud.
#[derive(Debug)]
pub struct PointNet {
    variant: PointNetVariant,
    decls: Vec<ArrayDecl>,
    pts: ArrayId,
    stages: Vec<SaStage>,
    /// Compiled regions of `stages`, index for index.
    sa_regions: Vec<SaRegions>,
    fc_dims: Vec<u64>,
    fc_w: Vec<ArrayId>,
    fc_out: Vec<ArrayId>,
    fc_regions: Vec<CompiledRegion>,
    fc_in_dim: u64,
    /// Dense-tail activation tensors (graph stages need one producer per
    /// tensor, so the pipeline's ReLUs write here instead of in place).
    tact: [ArrayId; 3],
    /// FC-head activation tensors for the pipeline's inter-layer ReLUs.
    fc_act: Vec<ArrayId>,
}

impl PointNet {
    /// Builds the network at a scale (`Paper` = Table 4 parameters, 4k points).
    pub fn new(scale: Scale, variant: PointNetVariant) -> Self {
        let (np, shrink) = match scale {
            Scale::Paper => (4096u64, 1u64),
            Scale::Test => (192u64, 16u64),
        };
        let sa = |k: u64, n: u64, r: f32, d0: u64, d1: u64, d2: u64| SaParams {
            k: (k / shrink).max(1),
            n: (n / shrink.min(4)).max(4),
            r,
            dims: [
                (d0 / shrink).max(4),
                (d1 / shrink).max(4),
                (d2 / shrink).max(4),
            ],
        };
        let mut decls = TensorTable::new();
        let pts = decls.tensor_typed("PTS", vec![3, np], DataType::F32);

        let mut stages: Vec<SaStage> = Vec::new();
        let build_stage = |decls: &mut TensorTable,
                           stages: &mut Vec<SaStage>,
                           label: &str,
                           p: SaParams,
                           np_in: u64,
                           src_pts: ArrayId,
                           feat_srcs: Vec<FeatSrc>,
                           sample_here: bool,
                           shared_cpts: Option<ArrayId>| {
            let st = SaStage::build(
                decls,
                label,
                p,
                np_in,
                src_pts,
                feat_srcs,
                sample_here,
                shared_cpts,
            );
            stages.push(st);
        };

        match variant {
            PointNetVariant::Ssg => {
                // Table 4: SA1(512,32,.2,[64,64,128]) SA2(128,64,.4,[128,128,256])
                // SA3(1,128,inf,[256,512,1024]).
                let p1 = sa(512, 32, 0.2, 64, 64, 128);
                build_stage(
                    &mut decls,
                    &mut stages,
                    "SA1",
                    p1,
                    np,
                    pts,
                    vec![FeatSrc::Pts(pts)],
                    true,
                    None,
                );
                let s1 = (stages[0].cpts, stages[0].agg, stages[0].p);
                let p2 = sa(128, 64, 0.4, 128, 128, 256);
                build_stage(
                    &mut decls,
                    &mut stages,
                    "SA2",
                    p2,
                    s1.2.k,
                    s1.0,
                    vec![FeatSrc::Agg(s1.1, s1.2.dims[2])],
                    true,
                    None,
                );
                let s2 = (stages[1].cpts, stages[1].agg, stages[1].p);
                let p3 = sa(1, 128, f32::INFINITY, 256, 512, 1024);
                build_stage(
                    &mut decls,
                    &mut stages,
                    "SA3",
                    p3,
                    s2.2.k,
                    s2.0,
                    vec![FeatSrc::Agg(s2.1, s2.2.dims[2])],
                    true,
                    None,
                );
            }
            PointNetVariant::Msg => {
                // Group 1: SA4/SA5/SA6 share centroids over the input cloud.
                let g1 = [
                    ("SA4", sa(512, 16, 0.1, 32, 32, 64)),
                    ("SA5", sa(512, 32, 0.2, 64, 64, 128)),
                    ("SA6", sa(512, 128, 0.4, 64, 96, 128)),
                ];
                let mut shared: Option<ArrayId> = None;
                for (i, (label, p)) in g1.into_iter().enumerate() {
                    build_stage(
                        &mut decls,
                        &mut stages,
                        label,
                        p,
                        np,
                        pts,
                        vec![FeatSrc::Pts(pts)],
                        i == 0,
                        shared,
                    );
                    if i == 0 {
                        shared = Some(stages[0].cpts);
                    }
                }
                let g1_srcs: Vec<FeatSrc> = stages
                    .iter()
                    .map(|s| FeatSrc::Agg(s.agg, s.p.dims[2]))
                    .collect();
                let g1_cpts = stages[0].cpts;
                let g1_k = stages[0].p.k;
                // Group 2: SA7/SA8/SA9 over group-1 centroids + concat features.
                let g2 = [
                    ("SA7", sa(128, 16, 0.2, 64, 64, 128)),
                    ("SA8", sa(128, 32, 0.4, 128, 128, 256)),
                    ("SA9", sa(128, 128, 0.8, 128, 128, 256)),
                ];
                let mut shared2: Option<ArrayId> = None;
                let base = stages.len();
                for (i, (label, p)) in g2.into_iter().enumerate() {
                    build_stage(
                        &mut decls,
                        &mut stages,
                        label,
                        p,
                        g1_k,
                        g1_cpts,
                        g1_srcs.clone(),
                        i == 0,
                        shared2,
                    );
                    if i == 0 {
                        shared2 = Some(stages[base].cpts);
                    }
                }
                let g2_srcs: Vec<FeatSrc> = stages[base..]
                    .iter()
                    .map(|s| FeatSrc::Agg(s.agg, s.p.dims[2]))
                    .collect();
                let g2_cpts = stages[base].cpts;
                let g2_k = stages[base].p.k;
                let p3 = sa(1, 128, f32::INFINITY, 256, 512, 1024);
                build_stage(
                    &mut decls,
                    &mut stages,
                    "SA3",
                    p3,
                    g2_k,
                    g2_cpts,
                    g2_srcs,
                    true,
                    None,
                );
            }
        }

        // FC head over the final global feature.
        let last = stages.last().expect("at least one stage");
        let fc_in = last.agg;
        let fc_in_dim = last.p.dims[2];
        let fc_dims: Vec<u64> = match scale {
            Scale::Paper => vec![512, 256, 10],
            Scale::Test => vec![16, 8, 4],
        };
        let mut fc_w = Vec::new();
        let mut fc_out = Vec::new();
        let mut din = fc_in_dim;
        for (l, &dout) in fc_dims.iter().enumerate() {
            fc_w.push(decls.tensor_typed(format!("FCW{l}"), vec![din, dout], DataType::F32));
            fc_out.push(decls.tensor_typed(format!("FCO{l}"), vec![1, dout], DataType::F32));
            din = dout;
        }

        // Pipeline-only activation tensors (appended after the classic table,
        // so existing array ids are unchanged): the graph IR requires one
        // producer per tensor, so its ReLU stages cannot update in place.
        let (tn, tk, tdims) = {
            let last = stages.last().expect("at least one stage");
            (last.p.n, last.p.k, last.p.dims)
        };
        let tact = [
            decls.tensor_typed("TACT0", vec![tn, tk, tdims[0]], DataType::F32),
            decls.tensor_typed("TACT1", vec![tn, tk, tdims[1]], DataType::F32),
            decls.tensor_typed("TACT2", vec![tn, tk, tdims[2]], DataType::F32),
        ];
        let fc_act: Vec<ArrayId> = fc_dims[..fc_dims.len() - 1]
            .iter()
            .enumerate()
            .map(|(l, &d)| decls.tensor_typed(format!("FCA{l}"), vec![1, d], DataType::F32))
            .collect();

        // FC kernels (near-memory by construction: tiny matvecs). ReLU
        // between layers is applied post-store by a host pass in the wrapper;
        // the matvec itself stays linear.
        let mut fc_regions = Vec::new();
        let mut din = fc_in_dim;
        for (l, &dout) in fc_dims.iter().enumerate() {
            let input = if l == 0 { fc_in } else { fc_out[l - 1] };
            let kernel = fc_kernel(
                decls.decls(),
                format!("fc{l}"),
                input,
                l == 0,
                fc_w[l],
                fc_out[l],
                din,
                dout,
            );
            fc_regions.push(compile(kernel, &[]));
            din = dout;
        }

        // Stage kernels read the whole table, so they compile once it is
        // complete.
        let decls = decls.decls().to_vec();
        let sa_regions = stages.iter().map(|st| st.build_kernels(&decls)).collect();

        PointNet {
            variant,
            decls,
            pts,
            stages,
            sa_regions,
            fc_dims,
            fc_w,
            fc_out,
            fc_regions,
            fc_in_dim,
            tact,
            fc_act,
        }
    }

    /// Network shape.
    pub fn variant(&self) -> PointNetVariant {
        self.variant
    }

    /// The dense tail of the network — final-SA MLP×3 (+ReLU), neighborhood
    /// max-pool, and the FC head — expressed as a pipeline graph: 12 kernel
    /// stages chained by named tensors, ending in the logits tensor the
    /// per-kernel wrapper also produces. The host-interactive front phases
    /// (sampling, ball query, gather) are data-dependent and stay outside.
    pub fn tail_graph(&self) -> PipelineGraph {
        let last = self.stages.last().expect("at least one stage");
        let (n, k) = (last.p.n, last.p.k);
        let name = match self.variant {
            PointNetVariant::Ssg => "pointnet_ssg_tail",
            PointNetVariant::Msg => "pointnet_msg_tail",
        };
        let mut pb = PipelineBuilder::with_table(name, TensorTable::from_decls(self.decls.clone()));
        for l in 0..3 {
            let (input, din) = if l == 0 {
                (last.gf, last.din)
            } else {
                (self.tact[l - 1], last.p.dims[l - 1])
            };
            pb.add_stage(
                dense_mlp_kernel(
                    &self.decls,
                    format!("tail_mlp{l}"),
                    input,
                    last.weights[l],
                    last.louts[l],
                    n,
                    k,
                    din,
                    last.p.dims[l],
                ),
                vec![],
                vec![],
                false,
            );
            pb.add_stage(
                relu_kernel(
                    &self.decls,
                    format!("tail_relu{l}"),
                    last.louts[l],
                    self.tact[l],
                ),
                vec![],
                vec![],
                true,
            );
        }
        pb.add_stage(
            agg_kernel(
                &self.decls,
                "tail_agg".into(),
                self.tact[2],
                last.agg,
                n,
                k,
                last.p.dims[2],
            ),
            vec![],
            vec![],
            true,
        );
        let mut din = self.fc_in_dim;
        for (l, &dout) in self.fc_dims.iter().enumerate() {
            let input = if l == 0 { last.agg } else { self.fc_act[l - 1] };
            pb.add_stage(
                fc_kernel(
                    &self.decls,
                    format!("tail_fc{l}"),
                    input,
                    l == 0,
                    self.fc_w[l],
                    self.fc_out[l],
                    din,
                    dout,
                ),
                vec![],
                vec![],
                false,
            );
            if l + 1 < self.fc_dims.len() {
                pb.add_stage(
                    relu_kernel(
                        &self.decls,
                        format!("tail_fcrelu{l}"),
                        self.fc_out[l],
                        self.fc_act[l],
                    ),
                    vec![],
                    vec![],
                    true,
                );
            }
            din = dout;
        }
        pb.build().expect("pointnet tail graph is well-formed")
    }

    /// Deterministically fills the tail graph's input tensors (the final SA
    /// stage's gathered features plus all MLP/FC weights), so the graph can
    /// run standalone without driving the host-interactive front phases.
    pub fn seed_tail_inputs(&self, mem: &mut Memory) {
        let last = self.stages.last().expect("at least one stage");
        fill_uniform(mem, last.gf, 0xA110, -1.0, 1.0);
        for w in last.weights {
            fill_uniform(mem, w, 0x9000 + w.0 as u64, -0.5, 0.5);
        }
        for &w in &self.fc_w {
            fill_uniform(mem, w, 0xF000 + w.0 as u64, -0.5, 0.5);
        }
    }

    /// Runs inference and returns the per-stage/phase timeline (Fig 19).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run_detailed(
        &self,
        m: &mut Machine,
        mode: ExecMode,
    ) -> Result<Vec<StageReport>, SimError> {
        let mut reports = Vec::new();
        for (st, regions) in self.stages.iter().zip(&self.sa_regions) {
            st.run(regions, m, mode, &mut reports)?;
        }
        for (l, region) in self.fc_regions.iter().enumerate() {
            let r = m.run_region(&instantiate(region, &[]), &[], mode)?;
            reports.push(StageReport {
                stage: "FC".into(),
                phase: "fc",
                cycles: r.cycles,
                executed: r.executed,
            });
            // Inter-layer ReLU applied host-side (negligible work: ≤512 values).
            if l + 1 < self.fc_regions.len() {
                for v in m.memory().array_mut(self.fc_out[l]) {
                    *v = v.max(0.0);
                }
            }
        }
        Ok(reports)
    }
}

impl SaStage {
    #[allow(clippy::too_many_arguments)]
    fn build(
        decls: &mut TensorTable,
        label: &str,
        p: SaParams,
        np_in: u64,
        src_pts: ArrayId,
        feat_srcs: Vec<FeatSrc>,
        sample_here: bool,
        shared_cpts: Option<ArrayId>,
    ) -> SaStage {
        let din: u64 = feat_srcs.iter().map(FeatSrc::dims).sum();
        let (k, n) = (p.k, p.n);
        let cpts = shared_cpts.unwrap_or_else(|| {
            decls.tensor_typed(format!("{label}_CPTS"), vec![3, k], DataType::F32)
        });
        let mind = decls.tensor_typed(format!("{label}_MIND"), vec![np_in], DataType::F32);
        let mask = decls.tensor_typed(format!("{label}_MASK"), vec![np_in, k], DataType::F32);
        let neigh = decls.tensor_typed(format!("{label}_NEIGH"), vec![n, k], DataType::I32);
        let gf = decls.tensor_typed(format!("{label}_GF"), vec![n, k, din], DataType::F32);
        let louts = [
            decls.tensor_typed(format!("{label}_L0"), vec![n, k, p.dims[0]], DataType::F32),
            decls.tensor_typed(format!("{label}_L1"), vec![n, k, p.dims[1]], DataType::F32),
            decls.tensor_typed(format!("{label}_L2"), vec![n, k, p.dims[2]], DataType::F32),
        ];
        let bufg = decls.tensor_typed(format!("{label}_BUFG"), vec![n, k], DataType::F32);
        let bufw = [
            decls.tensor_typed(format!("{label}_BW0"), vec![1, 1, p.dims[0]], DataType::F32),
            decls.tensor_typed(format!("{label}_BW1"), vec![1, 1, p.dims[1]], DataType::F32),
            decls.tensor_typed(format!("{label}_BW2"), vec![1, 1, p.dims[2]], DataType::F32),
        ];
        let weights = [
            decls.tensor_typed(format!("{label}_W0"), vec![p.dims[0], din], DataType::F32),
            decls.tensor_typed(
                format!("{label}_W1"),
                vec![p.dims[1], p.dims[0]],
                DataType::F32,
            ),
            decls.tensor_typed(
                format!("{label}_W2"),
                vec![p.dims[2], p.dims[1]],
                DataType::F32,
            ),
        ];
        let agg = decls.tensor_typed(format!("{label}_AGG"), vec![1, k, p.dims[2]], DataType::F32);
        SaStage {
            label: label.to_string(),
            p,
            np_in,
            src_pts,
            feat_srcs,
            din,
            sample_here,
            cpts,
            mind,
            mask,
            neigh,
            gf,
            louts,
            bufg,
            bufw,
            weights,
            agg,
        }
    }

    /// Width of MLP layer `l`'s input.
    fn layer_din(&self, l: usize) -> u64 {
        if l == 0 {
            self.din
        } else {
            self.p.dims[l - 1]
        }
    }

    fn build_kernels(&self, decls: &[ArrayDecl]) -> SaRegions {
        let (k, n, np_in) = (self.p.k, self.p.n, self.np_in);
        // MIND[p] = +inf.
        let mind_init = {
            let mut kb = KernelBuilder::new(format!("{}_mind_init", self.label), DataType::F32);
            declare_all(&mut kb, decls);
            let pl = kb.parallel_loop("p", 0, np_in as i64);
            kb.assign(self.mind, vec![Idx::var(pl)], ScalarExpr::Const(f32::MAX));
            compile(kb.build().expect("builds"), &[])
        };
        // MIND[p] = min(MIND[p], ||pts[p] - c||²), c in params.
        let fs_dist = {
            let mut kb = KernelBuilder::new(format!("{}_fs_dist", self.label), DataType::F32);
            declare_all(&mut kb, decls);
            let pl = kb.parallel_loop("p", 0, np_in as i64);
            let mut d2: Option<ScalarExpr> = None;
            for c in 0..3 {
                let diff = ScalarExpr::sub(
                    ScalarExpr::load(self.src_pts, vec![Idx::constant(c), Idx::var(pl)]),
                    ScalarExpr::Param(c as u32),
                );
                let sq = ScalarExpr::mul(diff.clone(), diff);
                d2 = Some(match d2 {
                    Some(acc) => ScalarExpr::add(acc, sq),
                    None => sq,
                });
            }
            kb.accum(
                self.mind,
                vec![Idx::var(pl)],
                ReduceOp::Min,
                d2.expect("three coords"),
            );
            compile(kb.build().expect("builds"), &[])
        };
        // maxd = max_p MIND[p].
        let fs_max = {
            let mut kb = KernelBuilder::new(format!("{}_fs_max", self.label), DataType::F32);
            declare_all(&mut kb, decls);
            let pl = kb.parallel_loop("p", 0, np_in as i64);
            kb.scalar_reduce(
                "maxd",
                ReduceOp::Max,
                ScalarExpr::load(self.mind, vec![Idx::var(pl)]),
            );
            compile(kb.build().expect("builds"), &[])
        };
        // MASK[p][c] = ||pts[p] - cpts[c]||² <= r².
        let ballq = {
            let mut kb = KernelBuilder::new(format!("{}_ballq", self.label), DataType::F32);
            declare_all(&mut kb, decls);
            let pl = kb.parallel_loop("p", 0, np_in as i64);
            let cl = kb.parallel_loop("c", 0, k as i64);
            let mut d2: Option<ScalarExpr> = None;
            for c in 0..3 {
                let diff = ScalarExpr::sub(
                    ScalarExpr::load(self.src_pts, vec![Idx::constant(c), Idx::var(pl)]),
                    ScalarExpr::load(self.cpts, vec![Idx::constant(c), Idx::var(cl)]),
                );
                let sq = ScalarExpr::mul(diff.clone(), diff);
                d2 = Some(match d2 {
                    Some(acc) => ScalarExpr::add(acc, sq),
                    None => sq,
                });
            }
            let r2 = if self.p.r.is_finite() {
                self.p.r * self.p.r
            } else {
                f32::MAX
            };
            let within = ScalarExpr::bin(
                ComputeOp::CmpLe,
                d2.expect("three coords"),
                ScalarExpr::Const(r2),
            );
            kb.assign(self.mask, vec![Idx::var(pl), Idx::var(cl)], within);
            compile(kb.build().expect("builds"), &[])
        };
        // Gathers: GF[j][c][dim+off] = src[..][NEIGH[j][c]] — indirect streams.
        let gathers = {
            let mut out = Vec::new();
            let mut offset = 0i64;
            for (si, src) in self.feat_srcs.iter().enumerate() {
                let mut kb =
                    KernelBuilder::new(format!("{}_gather{si}", self.label), DataType::F32);
                declare_all(&mut kb, decls);
                let j = kb.parallel_loop("j", 0, n as i64);
                let c = kb.parallel_loop("c", 0, k as i64);
                let dm = kb.parallel_loop("d", 0, src.dims() as i64);
                let idx_load = ScalarExpr::load(self.neigh, vec![Idx::var(j), Idx::var(c)]);
                let v = match src {
                    FeatSrc::Pts(arr) => ScalarExpr::LoadIndirect {
                        array: *arr,
                        dim: 1,
                        index: Box::new(idx_load),
                        rest: vec![Idx::var(dm), Idx::constant(0)],
                    },
                    FeatSrc::Agg(arr, _) => ScalarExpr::LoadIndirect {
                        array: *arr,
                        dim: 1,
                        index: Box::new(idx_load),
                        rest: vec![Idx::constant(0), Idx::constant(0), Idx::var(dm)],
                    },
                };
                kb.assign(
                    self.gf,
                    vec![Idx::var(j), Idx::var(c), Idx::var_plus(dm, offset)],
                    v,
                );
                out.push(compile(kb.build().expect("builds"), &[]));
                offset += src.dims() as i64;
            }
            out
        };
        // MLP layers: layer `l` reads `input(l)`.
        let input = |l: usize| if l == 0 { self.gf } else { self.louts[l - 1] };
        let copy_g = std::array::from_fn(|l| {
            let mut kb = KernelBuilder::new(format!("{}_copyg{l}", self.label), DataType::F32);
            declare_all(&mut kb, decls);
            let kk = kb.sym("kk");
            let j = kb.parallel_loop("j", 0, n as i64);
            let c = kb.parallel_loop("c", 0, k as i64);
            kb.assign(
                self.bufg,
                vec![Idx::var(j), Idx::var(c)],
                ScalarExpr::load(input(l), vec![Idx::var(j), Idx::var(c), Idx::sym(kk)]),
            );
            compile(kb.build().expect("builds"), &[0])
        });
        let copy_w = std::array::from_fn(|l| {
            let mut kb = KernelBuilder::new(format!("{}_copyw{l}", self.label), DataType::F32);
            declare_all(&mut kb, decls);
            let kk = kb.sym("kk");
            let o = kb.parallel_loop("o", 0, self.p.dims[l] as i64);
            kb.assign(
                self.bufw[l],
                vec![Idx::constant(0), Idx::constant(0), Idx::var(o)],
                ScalarExpr::load(self.weights[l], vec![Idx::var(o), Idx::sym(kk)]),
            );
            compile(kb.build().expect("builds"), &[0])
        });
        let step = std::array::from_fn(|l| {
            let mut kb = KernelBuilder::new(format!("{}_step{l}", self.label), DataType::F32);
            declare_all(&mut kb, decls);
            let j = kb.parallel_loop("j", 0, n as i64);
            let c = kb.parallel_loop("c", 0, k as i64);
            let o = kb.parallel_loop("o", 0, self.p.dims[l] as i64);
            let prod = ScalarExpr::mul(
                ScalarExpr::load(self.bufg, vec![Idx::var(j), Idx::var(c)]),
                ScalarExpr::load(
                    self.bufw[l],
                    vec![Idx::constant(0), Idx::constant(0), Idx::var(o)],
                ),
            );
            kb.accum(
                self.louts[l],
                vec![Idx::var(j), Idx::var(c), Idx::var(o)],
                ReduceOp::Sum,
                prod,
            );
            compile(kb.build().expect("builds"), &[])
        });
        // Fused single-region layer for core/near execution: the Base
        // implementation is a tiled inner-product GEMM, not staged
        // outer-product rounds (Fig 8). Same constructor as the pipeline
        // graph's tail stages, so both paths share one kernel definition.
        let mlp_inner = std::array::from_fn(|l| {
            let kernel = dense_mlp_kernel(
                decls,
                format!("{}_mlpin{l}", self.label),
                input(l),
                self.weights[l],
                self.louts[l],
                n,
                k,
                self.layer_din(l),
                self.p.dims[l],
            );
            compile(kernel, &[])
        });
        let relu = std::array::from_fn(|l| {
            let kernel = relu_kernel(
                decls,
                format!("{}_relu{l}", self.label),
                self.louts[l],
                self.louts[l],
            );
            compile(kernel, &[])
        });
        // AGG[0][c][o] = max_j L2[j][c][o].
        let aggregate = compile(
            agg_kernel(
                decls,
                format!("{}_agg", self.label),
                self.louts[2],
                self.agg,
                n,
                k,
                self.p.dims[2],
            ),
            &[],
        );
        SaRegions {
            mind_init,
            fs_dist,
            fs_max,
            ballq,
            gathers,
            copy_g,
            copy_w,
            step,
            relu,
            mlp_inner,
            aggregate,
        }
    }

    fn run(
        &self,
        regions: &SaRegions,
        m: &mut Machine,
        mode: ExecMode,
        reports: &mut Vec<StageReport>,
    ) -> Result<(), SimError> {
        let push = |phase: &'static str,
                    cycles: u64,
                    executed: Executed,
                    reports: &mut Vec<StageReport>| {
            reports.push(StageReport {
                stage: self.label.clone(),
                phase,
                cycles,
                executed,
            });
        };
        // 1. Furthest sampling (skipped when centroids are shared, MSG §8).
        if self.sample_here {
            let mut cycles = 0;
            let mut exec = Executed::NearMemory;
            let r = m.run_region(&instantiate(&regions.mind_init, &[]), &[], mode)?;
            cycles += r.cycles;
            let mut cur = self.pick_point(m, 0);
            for round in 0..self.p.k {
                self.write_centroid(m, round, cur);
                let r = m.run_region(&instantiate(&regions.fs_dist, &[]), &cur, mode)?;
                cycles += r.cycles;
                exec = r.executed;
                let r = m.run_region(&instantiate(&regions.fs_max, &[]), &[], mode)?;
                cycles += r.cycles;
                cur = self.argmax_point(m, round);
            }
            push("sample", cycles, exec, reports);
        }
        // 2. Ball query: radius mask (timed) + host compaction (functional).
        let r = m.run_region(&instantiate(&regions.ballq, &[]), &[], mode)?;
        self.build_neighbors(m);
        push("ballq", r.cycles, r.executed, reports);
        // 3. Gather.
        let mut gcycles = 0;
        let mut gexec = Executed::NearMemory;
        for g in &regions.gathers {
            let r = m.run_region(&instantiate(g, &[]), &[], mode)?;
            gcycles += r.cycles;
            gexec = r.executed;
        }
        push("gather", gcycles, gexec, reports);
        // 4. MLP layers: fused inner-product regions for core/near execution
        // (the Base dataflow, Fig 8), staged outer-product rounds + ReLU for
        // the in-memory configurations.
        let mut mcycles = 0;
        let mut mexec = Executed::InMemory;
        let staged = matches!(mode, ExecMode::InL3 | ExecMode::InfS | ExecMode::InfSNoJit);
        for l in 0..3 {
            if staged {
                let step = instantiate(&regions.step[l], &[]);
                for kk in 0..self.layer_din(l) as i64 {
                    let r = m.run_region(&instantiate(&regions.copy_g[l], &[kk]), &[], mode)?;
                    mcycles += r.cycles;
                    let r = m.run_region(&instantiate(&regions.copy_w[l], &[kk]), &[], mode)?;
                    mcycles += r.cycles;
                    let r = m.run_region(&step, &[], mode)?;
                    mcycles += r.cycles;
                    mexec = r.executed;
                }
            } else {
                let r = m.run_region(&instantiate(&regions.mlp_inner[l], &[]), &[], mode)?;
                mcycles += r.cycles;
                mexec = r.executed;
            }
            let r = m.run_region(&instantiate(&regions.relu[l], &[]), &[], mode)?;
            mcycles += r.cycles;
        }
        push("mlp", mcycles, mexec, reports);
        // 5. Aggregate.
        let r = m.run_region(&instantiate(&regions.aggregate, &[]), &[], mode)?;
        push("aggregate", r.cycles, r.executed, reports);
        Ok(())
    }

    /// First sampled point (deterministic: point 0, like a fixed seed).
    fn pick_point(&self, m: &Machine, _round: u64) -> [f32; 3] {
        let pts = m.memory_ref().array(self.src_pts);
        [pts[0], pts[1], pts[2]]
    }

    fn write_centroid(&self, m: &mut Machine, round: u64, coords: [f32; 3]) {
        let k = round as usize;
        let arr = m.memory().array_mut(self.cpts);
        for c in 0..3 {
            arr[c + 3 * k] = coords[c];
        }
    }

    /// Host-side argmax extraction after the timed max-reduce region.
    fn argmax_point(&self, m: &Machine, round: u64) -> [f32; 3] {
        let mind = m.memory_ref().array(self.mind);
        let mut best = 0usize;
        for (i, &v) in mind.iter().enumerate() {
            if v > mind[best] {
                best = i;
            }
        }
        // Timing-only runs see all-zero memory; fall back to a rotation.
        if mind[best] == 0.0 {
            best = ((round + 1) as usize * 37) % self.np_in as usize;
        }
        let pts = m.memory_ref().array(self.src_pts);
        [pts[3 * best], pts[3 * best + 1], pts[3 * best + 2]]
    }

    /// Host-side neighbor-list compaction from the timed radius mask: the first
    /// `n` in-radius points per centroid, first neighbor duplicated to fill.
    fn build_neighbors(&self, m: &mut Machine) {
        let (np, k, n) = (self.np_in as usize, self.p.k as usize, self.p.n as usize);
        let mask = m.memory_ref().array(self.mask).to_vec();
        let neigh = m.memory().array_mut(self.neigh);
        for c in 0..k {
            let mut found: Vec<usize> = Vec::with_capacity(n);
            for p in 0..np {
                if mask[p + c * np] != 0.0 {
                    found.push(p);
                    if found.len() == n {
                        break;
                    }
                }
            }
            if found.is_empty() {
                found.push(c % np);
            }
            for j in 0..n {
                let v = *found.get(j).unwrap_or(&found[0]);
                neigh[j + c * n] = v as f32;
            }
        }
    }
}

impl Benchmark for PointNet {
    fn name(&self) -> &str {
        match self.variant {
            PointNetVariant::Ssg => "pointnet/ssg",
            PointNetVariant::Msg => "pointnet/msg",
        }
    }

    fn arrays(&self) -> Vec<ArrayDecl> {
        self.decls.clone()
    }

    fn init(&self, mem: &mut Memory) {
        let mut rng = StdRng::seed_from_u64(4242);
        for v in mem.array_mut(self.pts) {
            *v = rng.random_range(0.0..1.0);
        }
        for st in &self.stages {
            for w in st.weights {
                let mut rng = StdRng::seed_from_u64(0x9000 + w.0 as u64);
                for v in mem.array_mut(w) {
                    *v = rng.random_range(-0.5..0.5);
                }
            }
        }
        for &w in &self.fc_w {
            let mut rng = StdRng::seed_from_u64(0xF000 + w.0 as u64);
            for v in mem.array_mut(w) {
                *v = rng.random_range(-0.5..0.5);
            }
        }
    }

    fn run(&self, m: &mut Machine, mode: ExecMode) -> Result<(), SimError> {
        self.run_detailed(m, mode).map(|_| ())
    }

    fn reference(&self, _mem: &mut Memory) {
        // PointNet's functional path is self-checked differently: the pipeline
        // mixes timed regions with host-side steps (argmax pick, neighbor
        // compaction), so cross-mode equivalence is asserted by the test below
        // instead of an independent scalar re-implementation.
    }

    fn output_arrays(&self) -> Vec<ArrayId> {
        vec![*self.fc_out.last().expect("fc layers exist")]
    }

    fn regions(&self) -> Vec<&CompiledRegion> {
        let mut regions = Vec::new();
        for st in &self.sa_regions {
            regions.extend([&st.mind_init, &st.fs_dist, &st.fs_max, &st.ballq]);
            regions.extend(&st.gathers);
            for l in 0..3 {
                regions.extend([
                    &st.copy_g[l],
                    &st.copy_w[l],
                    &st.step[l],
                    &st.relu[l],
                    &st.mlp_inner[l],
                ]);
            }
            regions.push(&st.aggregate);
        }
        regions.extend(&self.fc_regions);
        regions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cross-mode functional equivalence: every configuration must produce the
    /// same classifier logits.
    #[test]
    fn ssg_modes_agree() {
        let b = PointNet::new(Scale::Test, PointNetVariant::Ssg);
        let cfg = infs_sim::SystemConfig::default();
        let mut outs = Vec::new();
        for mode in [
            ExecMode::Base { threads: 64 },
            ExecMode::NearL3,
            ExecMode::InfS,
        ] {
            let arrays = b.arrays();
            let mut m = Machine::new(cfg.clone(), &arrays);
            b.init(m.memory());
            b.run(&mut m, mode).unwrap();
            outs.push(m.memory_ref().array(b.output_arrays()[0]).to_vec());
        }
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[0], outs[2]);
        assert!(outs[0].iter().any(|&v| v != 0.0), "logits must be nonzero");
    }

    #[test]
    fn msg_runs_and_reports_stages() {
        let b = PointNet::new(Scale::Test, PointNetVariant::Msg);
        let cfg = infs_sim::SystemConfig::default();
        let arrays = b.arrays();
        let mut m = Machine::new(cfg, &arrays);
        b.init(m.memory());
        let reports = b.run_detailed(&mut m, ExecMode::InfS).unwrap();
        // 7 SAs (3+3+1); sampling shared within groups.
        let samples = reports.iter().filter(|r| r.phase == "sample").count();
        assert_eq!(samples, 3, "one sampling per group plus SA3");
        assert!(reports.iter().any(|r| r.phase == "mlp"));
        assert!(reports.iter().any(|r| r.stage == "FC"));
        let total: u64 = reports.iter().map(|r| r.cycles).sum();
        assert!(total > 0);
        // The stage reports are the whole timeline: whatever an entry
        // displaces is written back on that entry's account.
        assert_eq!(total, m.stats().cycles);
    }
}
