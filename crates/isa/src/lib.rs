//! ISA layer of Infinity Stream: the fat binary and the static backend.
//!
//! The paper's two-phase compilation (§3.4, §4.2 "division of labor") splits
//! work so the JIT stays fast:
//!
//! * **Static backend** (this crate): serializes the tDFG, schedules nodes in
//!   topological order, and allocates tensor values to *wordline registers*
//!   for each common SRAM geometry (256×256 and 512×512), producing a **fat
//!   binary** of region configurations — analogous to how CUDA fat binaries
//!   carry PTX per SM generation. Register spilling is unsupported, exactly as
//!   in the paper ("no register spilling was observed in the studied
//!   workloads"); a kernel that needs more live 32-bit tensors than the SRAM
//!   has spare wordlines fails to compile for that geometry.
//! * **JIT runtime** (`infs-runtime`): binds the scheduled tDFG to a concrete
//!   transposed layout and lowers it to bit-serial commands at `inf_cfg` time.
//!
//! A [`CompiledRegion`] is a *template*: sequential host loops and sizes enter
//! as kernel symbols, and [`CompiledRegion::instantiate`] re-derives the
//! concrete tDFG/sDFG pair for each region entry (how `inf_cfg` passes fresh
//! runtime parameters each time). Structure is stable across instantiations;
//! only domain extents change.
//!
//! `DESIGN.md` §4 (system inventory) locates this crate in the stack.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binary;
mod error;
mod schedule;

pub use binary::{CompileStage, CompiledRegion, Compiler, FatBinary, RegionInstance};
pub use error::IsaError;
pub use infs_faults::{fnv1a, Fnv1a};
pub use schedule::{Schedule, SramGeometry, WlReg};
