//! Command-granular timing simulator for Infinity Stream.
//!
//! This crate plays the role gem5 plays in the paper (§7): it models the
//! Table 2 machine — an 8×8 tiled multicore with a mesh NoC, a 144 MB NUCA L3
//! whose SRAM arrays compute bit-serially, near-L3 stream engines, tensor
//! controllers, a transpose unit, and DDR4 DRAM — and times every evaluated
//! configuration (`Base`, `Near-L3`, `In-L3`, `Inf-S`, `Inf-S no JIT`) over the
//! same functional execution.
//!
//! # Fidelity model
//!
//! The unit of simulation is a *command / stream phase*, not an instruction:
//!
//! * **In-memory** work arrives as the JIT's lowered [`InfCommand`] stream
//!   (exact per-bank tile/element loads, remote transfers, syncs). Banks
//!   advance independently; `sync` commands are global barriers implementing
//!   the §5.2 packet-counting protocol.
//! * **Near-memory** work is timed from the sDFG's access/op profile against
//!   the stream engines' bandwidth/compute limits, with forwarding traffic on
//!   the NoC.
//! * **Core (Base)** work uses a calibrated bandwidth/compute roofline over
//!   the same profile — the abstraction level the paper itself uses for its
//!   peak-throughput reasoning (Eq 1/Eq 2) — with a private-cache reuse filter.
//!
//! Functional results always come from the reference interpreters, so every
//! configuration produces bit-identical outputs by construction and the timing
//! layer cannot corrupt results. All claims of the evaluation are *relative*
//! (speedups, traffic ratios, energy ratios), which this level of modeling
//! preserves; see `DESIGN.md` §2 for the substitution argument. The
//! machine's bank-health mask, fault-plan hooks, and degradation counters
//! ([`FaultCounters`]) implement the `DESIGN.md` §10 fault model.
//!
//! [`InfCommand`]: infs_runtime::InfCommand

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod core_model;
mod energy;
mod inmem;
mod machine;
mod nearmem;
mod noc;
mod residency;
mod stats;

pub use config::SystemConfig;
pub use core_model::{core_time, CoreProfile};
pub use energy::{area_report, AreaReport, EnergyBreakdown, EnergyParams};
pub use infs_runtime::{JitModel, JitOutcome, Tier};
pub use inmem::InMemOutcome;
pub use machine::{
    ExecMode, Executed, FaultCounters, Machine, PipelinePolicy, RegionAuditor, RegionReport,
    RunPlan, SimError, StageReport, StageRequest,
};
pub use nearmem::NearMemOutcome;
pub use noc::Mesh;
pub use stats::{CycleBreakdown, RunStats, TrafficBreakdown};
