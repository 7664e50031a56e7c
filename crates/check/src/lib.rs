//! infs-check: differential verification of the Infinity Stream tDFG pipeline.
//!
//! The compiler pipeline — frontend → tDFG → e-graph rewriting → static
//! scheduling → JIT lowering — promises that every stage preserves semantics,
//! and the fat binary promises that what it carries is what the builder
//! produced. This crate checks both promises:
//!
//! * [`validate`] re-derives the structural invariants of a tDFG, its
//!   schedules, and its lowered command stream from scratch and compares them
//!   against what the artifact claims — catching corrupt or miscompiled
//!   regions with typed errors instead of silent wrong answers. The
//!   [`validate::auditor`] hook plugs the whole thing into the simulator so
//!   every executed region is vetted at the door.
//! * [`fuzz`] generates seeded random kernels from a bit-exact f32 subdomain
//!   and runs each through four configurations (interpreter oracle,
//!   unoptimized near-memory, optimized fused, JIT-tiled at two SRAM
//!   geometries), asserting bit-identical outputs, with greedy test-case
//!   minimization and JSON reproducer dumps on divergence.
//!
//! See `DESIGN.md` §11 for the invariant catalogue and the argument for why
//! bit-identity is the right oracle on the generated subdomain.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod validate;

pub use fuzz::{
    campaign_seed, fuzz_many, generate, minimize, replay, run_differential, DiffOutcome,
    Divergence, FuzzFailure, FuzzKernel, FuzzReport,
};
pub use validate::{
    auditor, validate_graph, validate_pipeline, validate_region, validate_schedule,
    validate_stream, CheckError,
};
