//! The Infinity Stream JIT runtime (paper §4).
//!
//! The tDFG in the fat binary is neutral to hardware details and input sizes;
//! this runtime binds it to a concrete machine at `inf_cfg` time:
//!
//! 1. [`TransposedLayout::plan`] picks the tiled, transposed data layout —
//!    searching tile sizes under the §4.1 constraints and heuristics (shift →
//!    near-square, reduce → tall on the reduced dimension, broadcast → small
//!    innermost), and mapping lattice cells to L3 banks / SRAM arrays /
//!    bitlines.
//! 2. [`lower`] JIT-lowers the scheduled tDFG into bit-serial
//!    [commands](InfCommand): [`distill`] splits the graph into a
//!    relocatable template and a slot table, and [`instantiate`] stamps the
//!    template out — tensors are decomposed along tile boundaries
//!    (Algorithm 1, in `infs-geom`), moves become intra-/inter-tile shift
//!    commands (Algorithm 2), commands are mapped to the L3 banks owning their
//!    tiles, and `sync` barriers are inserted after inter-tile movement.
//! 3. [`JitCache`] memoizes lowered command streams and records the shapes
//!    it has lowered — re-executing the same region with the same parameters
//!    (iterative stencils, matmul rounds) hits the cache and skips lowering,
//!    the paper's key JIT-overhead optimization; a shape sibling stamps its
//!    own freshly distilled template and pays the copy-and-patch rate. The
//!    cache only names the outcome: [`HwConfig::jit_cycles`] prices every
//!    outcome, and nothing else does.
//! 4. [`place`] is the one placement decision: a region runs on the host
//!    when no bank is live, on a forced tier clamped to what is feasible,
//!    near-memory without an in-memory plan or a healthy-bank quorum, and
//!    otherwise per Eq 2 — in-memory only when the core-side latency of the
//!    region's element operations exceeds the summed bit-serial command
//!    latencies (scaled by `n_banks / healthy`) plus the JIT lowering time.
//!    The [`Placement`] it returns carries the Eq 2 terms it compared.
//!
//! The commands carry exact per-bank tile/element loads and remote-transfer
//! lists, which is what the cycle-level simulator (`infs-sim`) consumes for
//! timing, NoC-traffic and energy accounting. Functional results always come
//! from the tDFG reference interpreter — command execution is therefore a pure
//! timing model, checked end-to-end against the interpreter by construction.
//!
//! `DESIGN.md` §4 (system inventory) locates this crate in the stack;
//! `DESIGN.md` §10 covers the health-aware side — [`place`]'s degradation
//! ladder and the [`JitCache`] load-path checksums.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod health;
mod layout;
mod lower;
mod memo;
mod template;

pub use config::{HwConfig, JitModel};
pub use error::RuntimeError;
pub use health::{in_memory_quorum, place, Eq2Terms, Placement, Tier};
pub use layout::TransposedLayout;
pub use lower::{
    instantiate, lower, BankLoad, CommandStream, InfCommand, LoweredStats, RemoteTransfer,
};
pub use memo::{JitCache, JitOutcome};
pub use template::{distill, CommandTemplate, SlotRect, TemplateOp};
