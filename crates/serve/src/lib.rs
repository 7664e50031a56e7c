//! # infs-serve
//!
//! A resident, multi-tenant compile-and-execute service over the Infinity
//! Stream stack — the deployment face the paper implies but never builds: a
//! long-lived process that accepts kernels, compiles them into fat binaries,
//! caches the artifacts content-addressed, and executes regions and pipeline
//! graphs on resident simulated machines — one per worker — that share one
//! JIT memoization cache.
//!
//! Two faces, one [`Server`]:
//!
//! - **in-process**: [`Server::submit`] / [`Server::call`] — used by the
//!   integration tests and `benchmark/`;
//! - **TCP**: [`serve_reactor`] speaks newline-delimited JSON (one
//!   [`Request`] per line in, one [`Response`] per line out) from one
//!   event-driven IO thread (`DESIGN.md` §14) for the `infs-served` binary,
//!   with [`Client`] as the matching thin client.
//!
//! What the server owns:
//!
//! - a **bounded admission queue** ([`queue::AdmissionQueue`]): when full,
//!   requests are rejected immediately with a `backpressure` error carrying a
//!   retry-after hint instead of queueing without limit;
//! - a **worker pool**: each worker drains the queue and owns one
//!   [`infs_sim::Machine`] for its lifetime, re-targeted per request at the
//!   array table the request runs (zeroed memory every time; the JIT handle,
//!   bank health and fault history persist);
//! - a **content-addressed artifact cache** ([`artifact::ArtifactCache`]):
//!   compiled fat binaries keyed by kernel × symbols × geometries ×
//!   optimizer flag, shared across tenants;
//! - a **shared bounded JIT cache** ([`infs_runtime::JitCache`]): lowered
//!   command streams memoize across workers and tenants (§4.2 of the
//!   paper, promoted to a service-wide resource);
//! - **per-request deadlines**: expired requests are cancelled between
//!   compiler stages ([`infs_isa::Compiler::compile_with`]) or before
//!   execution, and answered with a `timeout` error;
//! - **graceful shutdown**: admission closes, every admitted request still
//!   completes, workers drain and join ([`Server::shutdown`]);
//! - **fault tolerance** (`DESIGN.md` §10): a worker panic is caught, the
//!   worker's machine rebuilt (keeping its quarantined banks quarantined),
//!   and the request answered with a typed,
//!   retryable `worker-fault` error ([`ServeError::WorkerFault`]); both
//!   caches verify checksums on load, so corruption degrades to a miss; a
//!   `Health` verb reports `ok`/`degraded`/`draining` plus bank and fault
//!   counters; and [`ServeConfig::faults`] (the `--chaos SEED` flag) arms a
//!   deterministic [`infs_faults::FaultPlan`] for chaos drills — see the
//!   README operations runbook and `tests/chaos_smoke.rs`;
//! - **feedback-directed autotuning** (`DESIGN.md` §15): with
//!   [`ServeConfig::tune`] (the `--tune SEED` flag) set, an
//!   [`infs_tune::Tuner`] routes a deterministic sampled fraction of Inf-S
//!   execute and fused-pipeline traffic through explorer variants —
//!   alternative tiles, forced tiers, the round-trip residency policy —
//!   and promotes whichever variant actually beats the static §4.1/Eq-2
//!   heuristics on observed simulated cycles. Degradation events demote the
//!   incumbent and re-tune against post-fault reality.
//!
//! Every response carries a [`ResponseStats`] block — queue wait, compile
//! time, artifact/JIT cache hit flags, simulated cycles, and where the region
//! executed — so the serving layer is measurable from the first request.
//!
//! The queue/worker/cache architecture is `DESIGN.md` §8; the fault model
//! and degradation ladder are `DESIGN.md` §10.
//!
//! ```
//! use infs_serve::{demo, Request, RequestBody, CompileRequest, Server, ServeConfig};
//!
//! let server = Server::new(ServeConfig::default());
//! let response = server.call(Request {
//!     id: 1,
//!     tenant: "doc".into(),
//!     deadline_ms: None,
//!     body: RequestBody::Compile(CompileRequest {
//!         kernel: demo::scale(256),
//!         representative_syms: vec![],
//!         optimize: true,
//!     }),
//! });
//! assert!(response.ok);
//! let artifact = response.artifact.unwrap();
//! assert_eq!(artifact.len(), 16); // content-addressed id, stable across runs
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod cluster;
mod config;
pub mod demo;
mod error;
pub mod loadgen;
pub mod net;
pub mod protocol;
pub mod queue;
mod server;

pub use cluster::{Dispatch, ShardCluster};
pub use config::ServeConfig;
pub use error::ServeError;
pub use infs_tune::{TuneConfig, TuneStats, Tuner, Variant};
pub use net::{serve_reactor, Client};
pub use protocol::{
    executed_label, ArrayPayload, CompileRequest, ExecuteRequest, HealthReport, MetricsReport,
    PipelineRequest, Request, RequestBody, Response, ResponseStats, ScalarOut, ShardHealth,
    StageStats, WireError, WireMode,
};
pub use server::{Reply, Server, ShutdownStats, Submitted, Ticket};
