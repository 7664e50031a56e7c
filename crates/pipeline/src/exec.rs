//! Pipeline compilation and streaming execution: lowers a validated graph to
//! region instances and drives the machine's 3-phase prepare/stream/prefetch
//! loop.

use crate::{plan_residency, PipelineError, PipelineGraph, ResidencyPlan};
use infs_isa::{Compiler, RegionInstance};
use infs_sim::{
    ExecMode, Machine, PipelinePolicy, RunPlan, StageReport, StageRequest, SystemConfig,
};
use std::time::Instant;

/// A graph lowered against one machine configuration: validated, its
/// liveness lists derived, every stage compiled and instantiated.
#[derive(Debug)]
pub struct CompiledPipeline {
    graph: PipelineGraph,
    plan: ResidencyPlan,
    regions: Vec<RegionInstance>,
    compile_ns: Vec<u64>,
}

/// What one pipeline run produced: the machine's per-stage reports plus the
/// pipeline-level cycle and overlap accounting.
#[derive(Debug)]
pub struct PipelineReport {
    /// Per-stage machine reports, in execution order.
    pub stages: Vec<StageReport>,
    /// Total simulated cycles the run advanced the machine's clock — the sum
    /// of [`StageReport::cycles`] over `stages`.
    pub total_cycles: u64,
    /// Cycles stalled preparing (transposing) operands at stage entry.
    pub prepare_stall_cycles: u64,
    /// Prefetch cycles hidden under a preceding stage's execution.
    pub prefetch_hidden_cycles: u64,
    /// Prefetch cycles that did *not* fit under execution and stalled.
    pub prefetch_stall_cycles: u64,
}

impl PipelineReport {
    fn from_stages(stages: Vec<StageReport>, total_cycles: u64) -> Self {
        let prepare_stall_cycles = stages.iter().map(|s| s.prepare_stall).sum();
        let prefetch_hidden_cycles = stages.iter().map(|s| s.prefetch_hidden).sum();
        let prefetch_stall_cycles = stages
            .iter()
            .map(|s| s.prefetch_issued - s.prefetch_hidden)
            .sum();
        PipelineReport {
            stages,
            total_cycles,
            prepare_stall_cycles,
            prefetch_hidden_cycles,
            prefetch_stall_cycles,
        }
    }
}

/// Validates, plans and compiles a graph for a machine configuration.
///
/// Every stage is compiled with its own symbol binding as the representative
/// instantiation. No tile is fixed here: at each stage entry the machine
/// keeps the tile the stage's operands are already resident in whenever the
/// stage admits it, so intermediate tensors keep their SRAM layout across
/// the producer→consumer handoff on their own.
///
/// # Errors
///
/// [`PipelineError::Invalid`] for structurally bad graphs,
/// [`PipelineError::Capacity`] when a stage cannot fit L3, and
/// [`PipelineError::Compile`] when a stage kernel fails to compile.
pub fn compile(
    graph: &PipelineGraph,
    cfg: &SystemConfig,
) -> Result<CompiledPipeline, PipelineError> {
    let _span = infs_trace::span!(
        "pipeline.compile",
        graph = graph.name.as_str(),
        stages = graph.stages.len() as u64,
    );
    graph.validate()?;
    let plan = plan_residency(graph, cfg.compute_capacity_bytes())?;
    let mut regions = Vec::with_capacity(graph.stages.len());
    let mut compile_ns = Vec::with_capacity(graph.stages.len());
    for st in &graph.stages {
        let t0 = Instant::now();
        let compiler = Compiler {
            optimize: st.optimize,
            ..Compiler::default()
        };
        let region = compiler
            .compile(st.kernel.clone(), &st.syms)
            .and_then(|c| c.into_instance(&st.syms))
            .map_err(|e| PipelineError::Compile(format!("stage '{}': {e}", st.name)))?;
        compile_ns.push(t0.elapsed().as_nanos() as u64);
        regions.push(region);
    }
    Ok(CompiledPipeline {
        graph: graph.clone(),
        plan,
        regions,
        compile_ns,
    })
}

impl CompiledPipeline {
    /// The source graph.
    pub fn graph(&self) -> &PipelineGraph {
        &self.graph
    }

    /// The compiled region instances, one per stage.
    pub fn regions(&self) -> &[RegionInstance] {
        &self.regions
    }

    /// Host nanoseconds each stage took to compile.
    pub fn compile_ns(&self) -> &[u64] {
        &self.compile_ns
    }

    /// The stages as [`Machine::run`] takes them: each region with its
    /// parameters and its liveness lists (which a round-trip run ignores).
    pub fn stage_requests(&self) -> Vec<StageRequest<'_>> {
        self.regions
            .iter()
            .zip(&self.graph.stages)
            .zip(&self.plan.stages)
            .map(|((region, spec), plan)| StageRequest {
                region,
                params: &spec.params,
                prefetch: &plan.prefetch,
                evict: &plan.evict,
            })
            .collect()
    }

    fn run(
        &self,
        m: &mut Machine,
        mode: ExecMode,
        policy: PipelinePolicy,
    ) -> Result<PipelineReport, infs_sim::SimError> {
        let start = m.stats().cycles;
        // Default placements under either policy, so the comparison isolates
        // residency and overlap.
        let plan = RunPlan {
            policy,
            ..RunPlan::default()
        };
        let stages = m.run(&self.stage_requests(), mode, &plan)?;
        let total = m.stats().cycles - start;
        Ok(PipelineReport::from_stages(stages, total))
    }

    /// Runs the fused pipeline: intermediates stay resident until their last
    /// use unless the machine's ledger evicts them for capacity, and each
    /// stage's operands are prefetched under its predecessor.
    ///
    /// # Errors
    ///
    /// As [`Machine::run_region`]; the first failing stage aborts.
    pub fn run_fused(
        &self,
        m: &mut Machine,
        mode: ExecMode,
    ) -> Result<PipelineReport, infs_sim::SimError> {
        self.run(m, mode, PipelinePolicy::Fused)
    }

    /// Runs the per-kernel round-trip baseline: every stage arrives cold and
    /// writes all resident state back to host afterwards, like independent
    /// offload requests.
    ///
    /// # Errors
    ///
    /// As [`Machine::run_region`]; the first failing stage aborts.
    pub fn run_roundtrip(
        &self,
        m: &mut Machine,
        mode: ExecMode,
    ) -> Result<PipelineReport, infs_sim::SimError> {
        self.run(m, mode, PipelinePolicy::Roundtrip)
    }
}
