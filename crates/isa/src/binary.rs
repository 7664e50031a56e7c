use crate::{IsaError, Schedule, SramGeometry};
use infs_egraph::{CostParams, OptimizeRecord};
use infs_faults::Fnv1a;
use infs_frontend::{FrontendError, Kernel};
use infs_geom::layout::LayoutHints;
use infs_sdfg::Sdfg;
use infs_tdfg::{OpProfile, Tdfg};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// The static compiler: front end + e-graph optimizer + per-geometry backend.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Compiler {
    /// SRAM geometries the fat binary is scheduled for.
    pub geometries: Vec<SramGeometry>,
    /// Run the e-graph optimizer (ablation switch).
    pub optimize: bool,
    /// Extraction cost parameters.
    pub cost: CostParams,
}

impl Default for Compiler {
    fn default() -> Self {
        Compiler {
            geometries: vec![SramGeometry::G256, SramGeometry::G512],
            optimize: true,
            cost: CostParams::default(),
        }
    }
}

impl Compiler {
    /// Compiles a kernel into a region template, probing tensorizability and
    /// scheduling against a *representative* symbol binding (typical input
    /// sizes). The structure — node kinds, hints, schedules — is stable across
    /// instantiations; only domain extents vary.
    ///
    /// Each static stage runs once: the graph and schedules that decide
    /// tensorizability are embedded as [`CompiledRegion::representative`],
    /// and the optimizer's record is kept so that entry at another binding
    /// can reuse its result (see [`CompiledRegion::instantiate`]).
    ///
    /// Kernels that cannot be unrolled (indirect accesses, unsupported index
    /// forms) still compile, flagged near-memory-only.
    ///
    /// # Errors
    ///
    /// Returns an error if the kernel cannot even be streamized, or if the
    /// representative instantiation itself is invalid (unbound symbols, empty
    /// loops).
    pub fn compile(
        &self,
        kernel: Kernel,
        representative_syms: &[i64],
    ) -> Result<CompiledRegion, IsaError> {
        self.compile_with(kernel, representative_syms, &mut |_| true)
    }

    /// [`Compiler::compile`] with a progress gate called **before** each
    /// pipeline stage. Returning `false` abandons compilation with
    /// [`IsaError::Cancelled`] naming the stage that was about to run — this
    /// is how a serving deadline cancels a compile between stages instead of
    /// running an already-doomed request to completion.
    ///
    /// # Errors
    ///
    /// Same as [`Compiler::compile`], plus [`IsaError::Cancelled`].
    pub fn compile_with(
        &self,
        kernel: Kernel,
        representative_syms: &[i64],
        gate: &mut dyn FnMut(CompileStage) -> bool,
    ) -> Result<CompiledRegion, IsaError> {
        let mut span = infs_trace::span!("isa.compile", kernel = kernel.name());
        let mut check = |stage: CompileStage| -> Result<(), IsaError> {
            if gate(stage) {
                Ok(())
            } else {
                Err(IsaError::Cancelled(stage.label().to_string()))
            }
        };
        // The near-memory path must always exist.
        check(CompileStage::Streamize)?;
        let sdfg = kernel.streamize(representative_syms)?;
        // Probe the in-memory path; what the probe builds *is* the
        // representative instance, so every stage runs exactly once.
        check(CompileStage::Tensorize)?;
        let mut replay = None;
        let in_memory = match kernel.tensorize(representative_syms) {
            Ok(g) => {
                check(CompileStage::Optimize)?;
                let g = if self.optimize {
                    let (optimized, record) = infs_egraph::optimize_recorded(&g, &self.cost)?;
                    replay = Some(record);
                    optimized
                } else {
                    g
                };
                // At least one geometry must accommodate the region.
                check(CompileStage::Schedule)?;
                schedule_all(g, &self.geometries)
            }
            Err(FrontendError::NotTensorizable { .. }) => None,
            Err(e) => return Err(e.into()),
        };
        let tensorizable = in_memory.is_some();
        span.arg("tensorizable", tensorizable);
        // A replay rebuilds the representative's optimized graph, which only
        // a region some geometry schedules keeps.
        let replay = replay.filter(|_| tensorizable);
        check(CompileStage::Instantiate)?;
        let representative =
            RegionInstance::assemble(kernel.name(), representative_syms, sdfg, in_memory);
        Ok(CompiledRegion {
            kernel,
            geometries: self.geometries.clone(),
            optimize: self.optimize,
            cost: self.cost,
            tensorizable,
            representative: Some(representative),
            replay,
        })
    }
}

/// Schedules `g` for every geometry that fits; `None` when none does (the
/// region then has no in-memory version for this binding).
fn schedule_all(g: Tdfg, geometries: &[SramGeometry]) -> Option<(Tdfg, Vec<Schedule>)> {
    let _span = infs_trace::span!(
        "isa.schedule_all",
        geometries = geometries.len(),
        nodes = g.nodes().len(),
    );
    let schedules: Vec<Schedule> = geometries
        .iter()
        .filter_map(|&geom| Schedule::compute(&g, geom).ok())
        .collect();
    (!schedules.is_empty()).then_some((g, schedules))
}

/// The static-compilation pipeline stages, in execution order — what
/// [`Compiler::compile_with`] reports to its progress gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CompileStage {
    /// Stream extraction (the near-memory path; must always succeed).
    Streamize,
    /// Tensor unrolling into the tDFG (the in-memory probe).
    Tensorize,
    /// E-graph equality saturation + extraction.
    Optimize,
    /// Per-geometry backend scheduling / register allocation.
    Schedule,
    /// Embedding the representative instantiation into the fat binary.
    Instantiate,
}

impl CompileStage {
    /// Human-readable stage name (used in [`IsaError::Cancelled`]).
    pub fn label(self) -> &'static str {
        match self {
            CompileStage::Streamize => "streamize",
            CompileStage::Tensorize => "tensorize",
            CompileStage::Optimize => "optimize",
            CompileStage::Schedule => "schedule",
            CompileStage::Instantiate => "instantiate",
        }
    }
}

/// One compiled region template of the fat binary: the kernel plus everything
/// the static compiler decided (tensorizability, geometries, optimization).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompiledRegion {
    kernel: Kernel,
    geometries: Vec<SramGeometry>,
    optimize: bool,
    cost: CostParams,
    /// Whether the region has an in-memory (tDFG) version at all.
    pub tensorizable: bool,
    /// The representative instantiation embedded at compile time (the actual
    /// serialized tDFG configurations of the fat binary); region entry at its
    /// binding reuses it.
    pub representative: Option<RegionInstance>,
    /// The record of the optimization that built the representative's tDFG,
    /// which entry at another binding replays when the binding cannot change
    /// its result. Not part of the fat binary: a region read back from JSON
    /// has none and optimizes every other binding in full.
    #[serde(skip)]
    replay: Option<OptimizeRecord>,
}

impl CompiledRegion {
    /// Region (kernel) name.
    pub fn name(&self) -> &str {
        self.kernel.name()
    }

    /// The source kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Instantiates the region for concrete symbol values — the `inf_cfg`
    /// moment: hands out the concrete tDFG (optimized + scheduled) and sDFG.
    ///
    /// At the binding the region was compiled for this borrows the instance
    /// the static compiler embedded in the fat binary; only a different
    /// binding runs the static pipeline again. Its optimize stage replays
    /// the representative's optimization when the binding cannot change the
    /// result (see [`OptimizeRecord::replay`]); the span's `optimize` arg
    /// says `reused`, `ran` or `off`.
    ///
    /// # Errors
    ///
    /// Returns symbol/bound errors, or backend errors if no geometry can
    /// schedule this instantiation (e.g. the live set grew with the sizes).
    pub fn instantiate(&self, syms: &[i64]) -> Result<Cow<'_, RegionInstance>, IsaError> {
        let mut span = infs_trace::span!("isa.instantiate", kernel = self.kernel.name());
        let embedded = self.representative.as_ref().filter(|r| r.syms == syms);
        span.arg("reused", embedded.is_some());
        if let Some(rep) = embedded {
            return Ok(Cow::Borrowed(rep));
        }
        let sdfg = self.kernel.streamize(syms)?;
        let in_memory = if self.tensorizable {
            let (g, how) = self.optimize_at(self.kernel.tensorize(syms)?)?;
            span.arg("optimize", how);
            schedule_all(g, &self.geometries)
        } else {
            span.arg("optimize", "off");
            None
        };
        Ok(Cow::Owned(RegionInstance::assemble(
            self.kernel.name(),
            syms,
            sdfg,
            in_memory,
        )))
    }

    /// The optimized `g`, and how it was made: `reused` from the
    /// representative's optimization, `ran` in full, or `off`.
    fn optimize_at(&self, g: Tdfg) -> Result<(Tdfg, &'static str), IsaError> {
        if !self.optimize {
            return Ok((g, "off"));
        }
        let optimized = self.representative.as_ref().and_then(|r| r.tdfg.as_ref());
        if let (Some(record), Some(optimized)) = (&self.replay, optimized) {
            if let Some(replayed) = record.replay(&g, &self.cost, optimized) {
                return Ok((replayed?, "reused"));
            }
        }
        Ok((infs_egraph::optimize(&g, &self.cost)?, "ran"))
    }

    /// [`CompiledRegion::instantiate`] for a caller that keeps only the
    /// instance: at the compiled binding the embedded instance is moved out
    /// rather than cloned.
    ///
    /// # Errors
    ///
    /// Same as [`CompiledRegion::instantiate`].
    pub fn into_instance(mut self, syms: &[i64]) -> Result<RegionInstance, IsaError> {
        match self.representative.take_if(|rep| rep.syms == syms) {
            Some(rep) => Ok(rep),
            None => self.instantiate(syms).map(Cow::into_owned),
        }
    }
}

/// A concrete region ready for offload: the unit the runtime configures.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegionInstance {
    /// Region name.
    pub name: String,
    /// Symbol values this instance was built for.
    pub syms: Vec<i64>,
    /// In-memory version, if the region is tensorizable and schedulable.
    pub tdfg: Option<Tdfg>,
    /// Near-memory version (always present).
    pub sdfg: Sdfg,
    /// Backend schedules, one per geometry that fits.
    pub schedules: Vec<Schedule>,
    /// Layout hints for the runtime's tiling decision (§3.4).
    pub hints: LayoutHints,
    /// Aggregate op info for the in-/near-memory decision (Eq 2).
    pub profile: OpProfile,
}

impl RegionInstance {
    /// Puts the static stages' products together: the sDFG, and the
    /// optimized tDFG with the schedules that fit (`None` = near-memory only).
    fn assemble(
        name: &str,
        syms: &[i64],
        sdfg: Sdfg,
        in_memory: Option<(Tdfg, Vec<Schedule>)>,
    ) -> Self {
        let (hints, profile) = in_memory
            .as_ref()
            .map(|(g, _)| (g.layout_hints(), g.op_profile()))
            .unwrap_or_default();
        let (tdfg, schedules) = in_memory.unzip();
        RegionInstance {
            name: name.to_string(),
            syms: syms.to_vec(),
            tdfg,
            sdfg,
            schedules: schedules.unwrap_or_default(),
            hints,
            profile,
        }
    }

    /// The schedule matching a hardware geometry, if the fat binary carries one.
    pub fn schedule_for(&self, geometry: SramGeometry) -> Option<&Schedule> {
        self.schedules.iter().find(|s| s.geometry == geometry)
    }

    /// True if the instance can execute in-memory on the given geometry.
    pub fn supports_in_memory(&self, geometry: SramGeometry) -> bool {
        self.tdfg.is_some() && self.schedule_for(geometry).is_some()
    }
}

/// The fat binary: every compiled region of a program, serializable so the
/// artifact can be inspected and shipped (we use JSON rather than an opaque
/// encoding to keep the reproduction debuggable).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FatBinary {
    /// Compiled regions.
    pub regions: Vec<CompiledRegion>,
}

impl FatBinary {
    /// An empty binary.
    pub fn new() -> Self {
        FatBinary::default()
    }

    /// Adds a region and returns its index.
    pub fn push(&mut self, region: CompiledRegion) -> usize {
        self.regions.push(region);
        self.regions.len() - 1
    }

    /// Looks up a region by kernel name.
    pub fn region(&self, name: &str) -> Option<&CompiledRegion> {
        self.regions.iter().find(|r| r.name() == name)
    }

    /// Serializes to JSON.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Serialize`] on encoder failure.
    pub fn to_json(&self) -> Result<String, IsaError> {
        serde_json::to_string(self).map_err(|e| IsaError::Serialize(e.to_string()))
    }

    /// Deserializes from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Serialize`] on malformed input.
    pub fn from_json(s: &str) -> Result<Self, IsaError> {
        serde_json::from_str(s).map_err(|e| IsaError::Serialize(e.to_string()))
    }

    /// A stable 64-bit content hash of the binary (FNV-1a over its canonical
    /// JSON encoding, which writes struct fields in declaration order; the
    /// encoder streams into the hasher, so no copy of the JSON is built).
    /// Binaries that serialize identically hash identically — the
    /// content-addressing key the serving layer's artifact cache uses, so a
    /// kernel compiled by one tenant is found by every other tenant.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Serialize`] if the binary cannot be encoded.
    pub fn content_hash(&self) -> Result<u64, IsaError> {
        let mut hash = Fnv1a::new();
        serde_json::to_writer(&mut hash, self).map_err(|e| IsaError::Serialize(e.to_string()))?;
        Ok(hash.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infs_frontend::{Idx, KernelBuilder, ScalarExpr};
    use infs_sdfg::DataType;

    fn stencil_kernel() -> Kernel {
        let mut k = KernelBuilder::new("stencil1d", DataType::F32);
        let n = k.sym("n");
        let a = k.array("A", vec![64]);
        let b = k.array("B", vec![64]);
        let i = k.parallel_loop_bounds("i", Idx::constant(1), Idx::sym_plus(n, -1));
        let e = ScalarExpr::add(
            ScalarExpr::add(
                ScalarExpr::load(a, vec![Idx::var_plus(i, -1)]),
                ScalarExpr::load(a, vec![Idx::var(i)]),
            ),
            ScalarExpr::load(a, vec![Idx::var_plus(i, 1)]),
        );
        k.assign(b, vec![Idx::var(i)], e);
        k.build().unwrap()
    }

    fn gather_kernel() -> Kernel {
        let mut k = KernelBuilder::new("gather", DataType::F32);
        let data = k.array("data", vec![64]);
        let idx = k.array_typed("idx", vec![16], DataType::I32);
        let out = k.array("out", vec![16]);
        let i = k.parallel_loop("i", 0, 16);
        k.assign(
            out,
            vec![Idx::var(i)],
            ScalarExpr::LoadIndirect {
                array: data,
                dim: 0,
                index: Box::new(ScalarExpr::load(idx, vec![Idx::var(i)])),
                rest: vec![Idx::constant(0)],
            },
        );
        k.build().unwrap()
    }

    #[test]
    fn compile_tensorizable_region() {
        let c = Compiler::default();
        let region = c.compile(stencil_kernel(), &[64]).unwrap();
        assert!(region.tensorizable);
        let inst = region.instantiate(&[64]).unwrap();
        assert!(inst.tdfg.is_some());
        assert_eq!(inst.schedules.len(), 2);
        assert!(inst.supports_in_memory(SramGeometry::G256));
        assert!(!inst.hints.shift_dims.is_empty());
        assert!(inst.profile.max_domain_elems > 0);
    }

    #[test]
    fn compile_irregular_region_is_near_memory_only() {
        let c = Compiler::default();
        let region = c.compile(gather_kernel(), &[]).unwrap();
        assert!(!region.tensorizable);
        let inst = region.instantiate(&[]).unwrap();
        assert!(inst.tdfg.is_none());
        assert!(!inst.supports_in_memory(SramGeometry::G256));
        assert!(!inst.sdfg.streams().is_empty());
    }

    #[test]
    fn reinstantiation_changes_domains_not_structure() {
        let c = Compiler::default();
        let region = c.compile(stencil_kernel(), &[64]).unwrap();
        let a = region.instantiate(&[32]).unwrap();
        let b = region.instantiate(&[64]).unwrap();
        let (ga, gb) = (a.tdfg.as_ref().unwrap(), b.tdfg.as_ref().unwrap());
        assert_eq!(ga.nodes().len(), gb.nodes().len());
        assert_ne!(
            ga.domain(ga.outputs()[0].node),
            gb.domain(gb.outputs()[0].node)
        );
    }

    /// Entry at the compiled binding borrows the embedded instance — also
    /// after a JSON round trip — and only another binding builds a new one.
    #[test]
    fn entry_at_the_compiled_binding_borrows_the_embedded_instance() {
        let region = Compiler::default()
            .compile(stencil_kernel(), &[64])
            .unwrap();
        let mut fb = FatBinary::new();
        fb.push(region);
        let back = FatBinary::from_json(&fb.to_json().unwrap()).unwrap();
        for region in [&fb.regions[0], &back.regions[0]] {
            let rep = region.representative.as_ref().unwrap();
            match region.instantiate(&[64]).unwrap() {
                Cow::Borrowed(inst) => assert!(std::ptr::eq(inst, rep)),
                Cow::Owned(_) => panic!("rebuilt the compiled binding"),
            }
            assert!(matches!(region.instantiate(&[32]).unwrap(), Cow::Owned(_)));
        }
        let owned = fb.regions.remove(0).into_instance(&[64]).unwrap();
        assert_eq!(owned.syms, [64]);
    }

    #[test]
    fn fat_binary_roundtrips_json() {
        let c = Compiler::default();
        let mut fb = FatBinary::new();
        fb.push(c.compile(stencil_kernel(), &[64]).unwrap());
        fb.push(c.compile(gather_kernel(), &[]).unwrap());
        let json = fb.to_json().unwrap();
        let back = FatBinary::from_json(&json).unwrap();
        assert_eq!(back.regions.len(), 2);
        assert!(back.region("stencil1d").unwrap().tensorizable);
        assert!(!back.region("gather").unwrap().tensorizable);
        assert!(back.region("nope").is_none());
    }

    /// Content hashes are stable across serialize→parse round trips, equal
    /// for equal content, and (practically) distinct for different content.
    #[test]
    fn content_hash_is_stable_and_content_addressed() {
        let c = Compiler::default();
        let mut fb = FatBinary::new();
        fb.push(c.compile(stencil_kernel(), &[64]).unwrap());
        let h1 = fb.content_hash().unwrap();
        let back = FatBinary::from_json(&fb.to_json().unwrap()).unwrap();
        assert_eq!(back.content_hash().unwrap(), h1);
        let mut other = FatBinary::new();
        other.push(c.compile(gather_kernel(), &[]).unwrap());
        assert_ne!(other.content_hash().unwrap(), h1);
        assert_ne!(FatBinary::new().content_hash().unwrap(), h1);
    }

    /// The progress gate sees every stage in order for a tensorizable kernel,
    /// and returning `false` cancels with the stage's name.
    #[test]
    fn staged_compile_gates_and_cancels() {
        let c = Compiler::default();
        let mut seen = Vec::new();
        c.compile_with(stencil_kernel(), &[64], &mut |s| {
            seen.push(s);
            true
        })
        .unwrap();
        assert_eq!(
            seen,
            vec![
                CompileStage::Streamize,
                CompileStage::Tensorize,
                CompileStage::Optimize,
                CompileStage::Schedule,
                CompileStage::Instantiate,
            ]
        );
        // Cancel before the optimizer: the error names the stage.
        let mut n = 0;
        let err = c
            .compile_with(stencil_kernel(), &[64], &mut |_| {
                n += 1;
                n <= 2
            })
            .unwrap_err();
        match err {
            IsaError::Cancelled(stage) => assert_eq!(stage, "optimize"),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert!(err_display_mentions_stage());
    }

    fn err_display_mentions_stage() -> bool {
        IsaError::Cancelled("optimize".into())
            .to_string()
            .contains("optimize")
    }

    /// A non-tensorizable kernel skips the optimize/schedule stages but still
    /// gates streamize, tensorize and instantiate.
    #[test]
    fn staged_compile_skips_in_memory_stages_when_irregular() {
        let c = Compiler::default();
        let mut seen = Vec::new();
        c.compile_with(gather_kernel(), &[], &mut |s| {
            seen.push(s);
            true
        })
        .unwrap();
        assert_eq!(
            seen,
            vec![
                CompileStage::Streamize,
                CompileStage::Tensorize,
                CompileStage::Instantiate,
            ]
        );
    }

    #[test]
    fn optimizer_ablation_switch() {
        let c = Compiler {
            optimize: false,
            ..Default::default()
        };
        let region = c.compile(stencil_kernel(), &[64]).unwrap();
        assert!(region.tensorizable);
        let inst = region.instantiate(&[64]).unwrap();
        assert!(inst.tdfg.is_some());
    }
}
