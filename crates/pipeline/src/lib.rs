//! Program-level pipelines over Infinity Stream kernels.
//!
//! The per-kernel flow (frontend → ISA → runtime → sim) offloads one region
//! at a time: operands are transposed into SRAM on entry and results drain
//! back to host on exit, so a multi-layer model pays the full round trip at
//! every layer boundary. This crate adds the *program* level the paper's
//! PointNet++ case study (§8.6) sketches:
//!
//! * [`PipelineGraph`] — a graph IR where kernels are nodes chained by named
//!   tensors from one shared table, with a validator enforcing acyclicity
//!   (dataflow stage order), shape/dtype-compatible edges, and a single
//!   producer per tensor.
//! * [`ResidencyPlan`] — liveness: per stage, the next stage's operands to
//!   stage under it and the tensors that die with it — the "only the current
//!   layer resident" discipline. A stage whose own working set exceeds the
//!   L3 compute ways is a [`PipelineError::Capacity`]; everything else about
//!   capacity is the machine's residency ledger's one rule, which evicts the
//!   least-recently-used transposed arrays the entering stage does not need.
//! * [`CompiledPipeline`] — the phase scheduler running the 3-phase
//!   prepare/stream/prefetch loop on the simulated machine, so stage *k+1*'s
//!   operands are staged while stage *k* executes and a producer's transposed
//!   output is consumed in place by the next stage (the machine keeps the
//!   tile a stage's operands are resident in).
//!
//! The crate deliberately reuses the single-kernel stack unchanged: stages
//! compile through [`infs_isa::Compiler`] and execute through
//! [`infs_sim::Machine::run`], so fused and per-kernel runs share
//! one functional semantics and produce bitwise-identical results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;
mod graph;
mod plan;

pub use exec::{compile, CompiledPipeline, PipelineReport};
pub use graph::{PipelineBuilder, PipelineGraph, StageSpec};
pub use plan::{plan_residency, ResidencyPlan, StagePlan};

use std::error::Error;
use std::fmt;

/// Errors from graph validation, the capacity check, or stage compilation.
#[derive(Debug)]
#[non_exhaustive]
pub enum PipelineError {
    /// The graph violates a structural rule (or failed to (de)serialize).
    Invalid(String),
    /// A single stage's working set exceeds the L3 residency capacity.
    Capacity {
        /// The offending stage.
        stage: String,
        /// Bytes the stage's working set needs.
        need: u64,
        /// Bytes the capacity model allows.
        capacity: u64,
    },
    /// A stage kernel failed to compile or instantiate.
    Compile(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Invalid(what) => write!(f, "invalid pipeline graph: {what}"),
            PipelineError::Capacity {
                stage,
                need,
                capacity,
            } => write!(
                f,
                "stage '{stage}' working set ({need} bytes) exceeds L3 residency capacity \
                 ({capacity} bytes)"
            ),
            PipelineError::Compile(what) => write!(f, "pipeline stage compilation failed: {what}"),
        }
    }
}

impl Error for PipelineError {}
