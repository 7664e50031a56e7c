//! # Infinity Stream
//!
//! A from-scratch Rust reproduction of **"Infinity Stream: Portable and
//! Programmer-Friendly In-/Near-Memory Fusion"** (Wang, Liu, Arora, John,
//! Nowatzki — ASPLOS 2023): an execution model, IR, compiler, JIT runtime and
//! simulated microarchitecture that fuse *in-memory* computing (bit-serial
//! logic inside last-level-cache SRAM arrays) with *near-memory* computing
//! (streams executed at L3 banks) behind one portable abstraction.
//!
//! The stack, bottom-up (each layer is its own crate, re-exported here):
//!
//! | layer | crate | paper section |
//! |---|---|---|
//! | lattice geometry, Alg 1, tiling | [`geom`] | §3.2, §4.1 |
//! | stream dataflow graph (sDFG) | [`sdfg`] | §3.1 |
//! | tensor dataflow graph (tDFG) | [`tdfg`] | §3.2 |
//! | e-graph optimizer | [`egraph`] | Appendix A |
//! | loop-nest front end | [`frontend`] | §3.4 "plain C" |
//! | fat binary + scheduling | [`isa`] | §3.4 |
//! | JIT runtime (Alg 2, Eq 2) | [`runtime`] | §4 |
//! | simulated machine | [`sim`] | §5, §7 |
//!
//! # Quickstart
//!
//! ```
//! use infinity_stream::prelude::*;
//!
//! // 1. Write a kernel ("plain C"): C[i] = A[i] + B[i].
//! let n = 1 << 16;
//! let mut k = KernelBuilder::new("vec_add", DataType::F32);
//! let a = k.array("A", vec![n]);
//! let b = k.array("B", vec![n]);
//! let c = k.array("C", vec![n]);
//! let i = k.parallel_loop("i", 0, n as i64);
//! k.assign(c, vec![Idx::var(i)], ScalarExpr::add(
//!     ScalarExpr::load(a, vec![Idx::var(i)]),
//!     ScalarExpr::load(b, vec![Idx::var(i)]),
//! ));
//!
//! // 2. Compile into a fat binary and open a session on the simulated machine.
//! let mut binary = FatBinary::new();
//! binary.push(Compiler::default().compile(k.build()?, &[])?);
//! let mut session = Session::new(SystemConfig::default(), binary, ExecMode::InfS)?;
//!
//! // 3. Fill inputs, run, inspect.
//! session.memory().write_array(a, &vec![1.0; n as usize]);
//! session.memory().write_array(b, &vec![2.0; n as usize]);
//! let report = session.run("vec_add", &[], &[])?;
//! assert!(session.memory_ref().array(c).iter().all(|&x| x == 3.0));
//! assert!(report.cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! `DESIGN.md` §3 (workspace layout) maps the crates this facade stitches
//! together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use infs_egraph as egraph;
pub use infs_frontend as frontend;
pub use infs_geom as geom;
pub use infs_isa as isa;
pub use infs_runtime as runtime;
pub use infs_sdfg as sdfg;
pub use infs_sim as sim;
pub use infs_tdfg as tdfg;

mod session;

pub use session::{Session, SessionError};

/// The commonly used names, one `use` away.
pub mod prelude {
    pub use crate::{Session, SessionError};
    pub use infs_egraph::{optimize, CostParams};
    pub use infs_frontend::{Idx, Kernel, KernelBuilder, ScalarExpr};
    pub use infs_geom::{HyperRect, TileShape};
    pub use infs_isa::{CompiledRegion, Compiler, FatBinary, RegionInstance, SramGeometry};
    pub use infs_runtime::{Tier, TransposedLayout};
    pub use infs_sdfg::{ArrayDecl, ArrayId, DataType, Memory, ReduceOp};
    pub use infs_sim::{ExecMode, Executed, Machine, RegionReport, RunStats, SystemConfig};
    pub use infs_tdfg::{ComputeOp, Tdfg};
}
