//! Tensor dataflow graph (tDFG) — the Infinity Stream intermediate representation.
//!
//! The tDFG (paper §3.2, Fig 5) is the unified IR for in-/near-memory computing:
//! streams whose domain is a hyperrectangle of a data structure are *fully
//! unrolled* into **tensors** positioned on an N-dimensional **global lattice
//! space**. Dataflow nodes operate on whole tensors:
//!
//! | node | semantics |
//! |---|---|
//! | [`Node::Input`] | a hyperrectangular region of an array, placed in the lattice |
//! | [`Node::ConstVal`] / [`Node::Param`] | an infinite tensor of a (runtime) constant |
//! | [`Node::Compute`] | element-wise op over the *intersection* of its input domains |
//! | [`Node::Mv`] | shift a tensor along a dimension (explicit alignment) |
//! | [`Node::Bc`] | broadcast a unit-thick tensor along a dimension (spatial reuse) |
//! | [`Node::Shrink`] | restrict a domain (book-keeping only; lowered to a no-op) |
//! | [`Node::Reduce`] | associative reduction along one dimension |
//! | [`Node::StreamIn`] | a tensor produced by a near-memory stream (hybrid regions) |
//!
//! The graph is SSA: nodes always produce new tensors. Because tensors are fully
//! expanded, no element-wise order is implied — this is exactly the data
//! parallelism in-memory bit-serial execution exploits — and compute inputs must
//! be *aligned* in the same lattice cells, which is why `mv`/`bc` are explicit.
//!
//! The [`interp`] module gives the functional semantics of every node (the
//! per-point definition its row-strided executor is tested against is kept as
//! [`interp::reference`]);
//! the e-graph optimizer (`infs-egraph`), the backend scheduler (`infs-isa`), the
//! JIT runtime (`infs-runtime`) and the simulator (`infs-sim`) all treat it as
//! ground truth.
//!
//! # Example: the 1-D filter of Fig 4(a)
//!
//! ```
//! use infs_geom::HyperRect;
//! use infs_sdfg::{ArrayDecl, DataType, Memory};
//! use infs_tdfg::{ComputeOp, OutputTarget, TdfgBuilder};
//!
//! // B[i] = A[i-1] + A[i] + A[i+1] for i in [1, N-1)
//! let n = 8i64;
//! let mut b = TdfgBuilder::new(1, DataType::F32);
//! let arr_a = b.declare_array(ArrayDecl::new("A", vec![n as u64], DataType::F32));
//! let arr_b = b.declare_array(ArrayDecl::new("B", vec![n as u64], DataType::F32));
//! let center = HyperRect::new(vec![(1, n - 1)]).unwrap();
//!
//! let a0 = b.input(arr_a, HyperRect::new(vec![(0, n - 2)]).unwrap()).unwrap();
//! let a1 = b.input(arr_a, center.clone()).unwrap();
//! let a2 = b.input(arr_a, HyperRect::new(vec![(2, n)]).unwrap()).unwrap();
//! let a0r = b.mv(a0, 0, 1).unwrap();   // align A[i-1] with cell i
//! let a2l = b.mv(a2, 0, -1).unwrap();  // align A[i+1] with cell i
//! let s1 = b.compute(ComputeOp::Add, &[a0r, a1]).unwrap();
//! let s2 = b.compute(ComputeOp::Add, &[s1, a2l]).unwrap();
//! b.output(s2, OutputTarget::array(arr_b, center));
//! let g = b.build().unwrap();
//!
//! let mut mem = Memory::for_arrays(g.arrays());
//! mem.write_array(arr_a, &[1., 2., 3., 4., 5., 6., 7., 8.]);
//! infs_tdfg::interp::execute(&g, &mut mem, &[], &Default::default()).unwrap();
//! assert_eq!(mem.array(arr_b)[1..7], [6., 9., 12., 15., 18., 21.]);
//! ```
//!
//! `DESIGN.md` §4 (system inventory) locates this crate in the stack.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod graph;
pub mod interp;
mod node;
mod op;
mod stats;

pub use error::TdfgError;
pub use graph::{Output, OutputTarget, Tdfg, TdfgBuilder};
pub use interp::{TdfgOutputs, TensorData};
pub use node::{Node, NodeId};
pub use op::{bit_serial_latency, ComputeOp};
pub use stats::{OpProfile, TdfgStats};
