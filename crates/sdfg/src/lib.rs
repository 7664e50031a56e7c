//! Stream dataflow graph (sDFG) for Infinity Stream.
//!
//! Streams are the paper's near-memory abstraction (§3.1), inherited from
//! near-stream computing \[NSC, HPCA'22\]: long-term memory access patterns
//! decoupled from the core, with computation attached. A stream walks an
//! [affine](AccessFn::Affine) (up to three loop dimensions) or
//! [indirect](AccessFn::Indirect) (`A[B[i]]`) access pattern and either loads,
//! stores, reduces, or read-modify-writes elements; near-stream computation is
//! expressed as small [expressions](StreamExpr) over the values of other streams.
//!
//! Unlike tensors, streams *imply a temporal, sequential order* — which is what
//! makes them executable near L3 banks without alignment requirements, and also
//! why they cannot express the massive spatial parallelism that in-memory
//! computing needs. The tensor dataflow graph (crate `infs-tdfg`) unrolls
//! hyperrectangular streams into tensors; irregular streams stay in the sDFG and
//! run near-memory, fused with in-memory computation through the region
//! configuration (crate `infs-isa`).
//!
//! This crate also defines the shared data-model types used across the stack:
//! [`ArrayId`]/[`ArrayDecl`] (the `inf_array` declarations of §3.4),
//! [`DataType`], and the functional [`Memory`] the interpreters operate on.
//!
//! # Example: a near-memory dot product
//!
//! ```
//! use infs_sdfg::{AccessFn, ArrayDecl, DataType, Memory, ReduceOp, Sdfg, StreamExpr};
//!
//! let mut g = Sdfg::new(vec![4]); // one loop, 4 iterations
//! let a = g.declare_array(ArrayDecl::new("a", vec![4], DataType::F32));
//! let b = g.declare_array(ArrayDecl::new("b", vec![4], DataType::F32));
//! let la = g.load(AccessFn::identity(a, 1));
//! let lb = g.load(AccessFn::identity(b, 1));
//! let va = g.expr(StreamExpr::StreamVal(la));
//! let vb = g.expr(StreamExpr::StreamVal(lb));
//! let prod = g.expr(StreamExpr::mul(va, vb));
//! g.reduce("dot", ReduceOp::Sum, prod);
//!
//! let mut mem = Memory::for_arrays(g.arrays());
//! mem.write_array(a, &[1.0, 2.0, 3.0, 4.0]);
//! mem.write_array(b, &[4.0, 3.0, 2.0, 1.0]);
//! let out = infs_sdfg::interp::execute(&g, &mut mem, &[]).unwrap();
//! assert_eq!(out.scalar("dot"), Some(20.0));
//! ```
//!
//! `DESIGN.md` §4 (system inventory) locates this crate in the stack.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod error;
mod expr;
mod graph;
pub mod interp;
mod memory;
mod types;

pub use access::{AccessFn, AffineMap};
pub use error::SdfgError;
pub use expr::{BinOp, ExprId, StreamExpr, UnOp};
pub use graph::{Sdfg, Stream, StreamId, StreamKind};
pub use interp::SdfgOutputs;
pub use memory::Memory;
pub use types::{fmax, fmin, ArrayDecl, ArrayId, DataType, ReduceOp};
